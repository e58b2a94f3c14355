// The paper's Table 1-3 workspaces and the two ablations (E9 read policy,
// A2 frontier state) as a pinned check. Every cell runs at the sizes
// EXPERIMENTS.md reports and compares the deterministic counters exactly
// — peak workspace tuples and output rows — so any change to a sweep
// operator that moves a published figure fails here. No timings.
//
// Each cell builds its operator through the public factory with default
// options, exactly as the planner and the paper benches do. A "-" cell
// pins the factory's refusal of the ordering; the benches run those cells
// without garbage collection, whose workspace is |X| + |Y| by
// construction and needs no pin.

#include <gtest/gtest.h>

#include <memory>
#include <ostream>
#include <string>
#include <vector>

#include "datagen/interval_gen.h"
#include "join/batch_sweep.h"
#include "join/containment_semijoin.h"
#include "join/self_semijoin.h"
#include "stream/stream.h"

namespace tempus {
namespace {

/// The pinned counters of one cell; `refused` marks the "-" cells, where
/// the factory must refuse the ordering (no garbage-collection criterion).
struct Cell {
  size_t ws = 0;
  size_t rows = 0;
  bool refused = false;

  bool operator==(const Cell&) const = default;
};

std::ostream& operator<<(std::ostream& os, const Cell& c) {
  if (c.refused) return os << "refused";
  return os << "{ws=" << c.ws << " rows=" << c.rows << "}";
}

constexpr Cell kRefused{0, 0, true};

Cell Measure(Result<std::unique_ptr<TupleStream>> op) {
  if (!op.ok()) {
    EXPECT_EQ(op.status().code(), StatusCode::kFailedPrecondition)
        << op.status().ToString();
    return kRefused;
  }
  Result<size_t> rows = DrainCountBatches(op->get());
  EXPECT_TRUE(rows.ok()) << rows.status().ToString();
  return {(*op)->metrics().peak_workspace_tuples, rows.ok() ? *rows : 0,
          false};
}

TemporalRelation Generate(const std::string& name,
                          const IntervalWorkloadConfig& config) {
  Result<TemporalRelation> r = GenerateIntervalRelation(name, config);
  EXPECT_TRUE(r.ok());
  return std::move(r).value();
}

TemporalRelation SortedBy(const TemporalRelation& r,
                          const TemporalSortOrder& order) {
  return r.SortedBy(order.ToSortSpec(r.schema()).value());
}

// E1 — Table 1: |X| = |Y| = 10,000, 1/lambda = 4, X mean duration 64
// (containers), Y mean duration 8 (containees).
TEST(PaperCountersTest, E1Table1) {
  IntervalWorkloadConfig config;
  config.count = 10'000;
  config.mean_interarrival = 4.0;
  config.mean_duration = 64.0;
  config.seed = 1;
  const TemporalRelation x = Generate("X", config);
  config.mean_duration = 8.0;
  config.seed = 2;
  const TemporalRelation y = Generate("Y", config);

  struct Row {
    TemporalSortOrder x_order;
    TemporalSortOrder y_order;
    Cell join;
    Cell contain_semi;
    Cell contained_semi;
  };
  const Row rows[] = {
      {kByValidFromAsc, kByValidFromAsc, {30, 141352}, {8, 8753},
       {11, 1317}},
      {kByValidFromDesc, kByValidFromDesc, kRefused, kRefused, kRefused},
      {kByValidFromAsc, kByValidToAsc, {30, 141352}, {0, 8753}, kRefused},
      {kByValidFromDesc, kByValidToDesc, kRefused, kRefused, {0, 1317}},
      {kByValidToAsc, kByValidFromAsc, kRefused, kRefused, {0, 1317}},
      {kByValidToDesc, kByValidFromDesc, {31, 141352}, {0, 8753}, kRefused},
      {kByValidToAsc, kByValidToAsc, kRefused, kRefused, kRefused},
      {kByValidToDesc, kByValidToDesc, {30, 141352}, {11, 8753},
       {11, 1317}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.x_order.ToString() + ", " + row.y_order.ToString());
    const TemporalRelation xs = SortedBy(x, row.x_order);
    const TemporalRelation ys = SortedBy(y, row.y_order);
    ContainJoinOptions join;
    join.left_order = row.x_order;
    join.right_order = row.y_order;
    EXPECT_EQ(Measure(MakeContainJoin(VectorStream::Scan(xs),
                                      VectorStream::Scan(ys), join)),
              row.join)
        << "Contain-join";
    TemporalSemijoinOptions semi;
    semi.left_order = row.x_order;
    semi.right_order = row.y_order;
    EXPECT_EQ(Measure(MakeContainSemijoin(VectorStream::Scan(xs),
                                          VectorStream::Scan(ys), semi)),
              row.contain_semi)
        << "Contain-semijoin";
    EXPECT_EQ(Measure(MakeContainedSemijoin(VectorStream::Scan(xs),
                                            VectorStream::Scan(ys), semi)),
              row.contained_semi)
        << "Contained-semijoin";
  }
}

// E2 — Table 2: |X| = |Y| = 10,000, 1/lambda = 4, mean duration 24.
TEST(PaperCountersTest, E2Table2) {
  IntervalWorkloadConfig config;
  config.count = 10'000;
  config.mean_interarrival = 4.0;
  config.mean_duration = 24.0;
  config.seed = 11;
  const TemporalRelation x = Generate("X", config);
  config.seed = 12;
  const TemporalRelation y = Generate("Y", config);

  struct Row {
    TemporalSortOrder order;
    Cell join;
    Cell semi;
  };
  const Row rows[] = {
      {kByValidFromAsc, {23, 116972}, {0, 10000}},
      {kByValidFromDesc, kRefused, kRefused},
      {kByValidToAsc, kRefused, kRefused},
      {kByValidToDesc, {23, 116972}, {0, 10000}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE(row.order.ToString());
    const TemporalRelation xs = SortedBy(x, row.order);
    const TemporalRelation ys = SortedBy(y, row.order);
    AllenSweepJoinOptions join;
    join.left_order = row.order;
    join.right_order = row.order;
    EXPECT_EQ(Measure(MakeAllenSweepJoin(VectorStream::Scan(xs),
                                         VectorStream::Scan(ys), join)),
              row.join)
        << "Overlap-join";
    OverlapSemijoinOptions semi;
    semi.order = row.order;
    EXPECT_EQ(Measure(MakeOverlapSemijoin(VectorStream::Scan(xs),
                                          VectorStream::Scan(ys), semi)),
              row.semi)
        << "Overlap-semijoin";
  }
}

struct SelfRow {
  TemporalSortOrder order;
  Cell contained;
  Cell contain;
};

void CheckTable3(const TemporalRelation& x, const std::vector<SelfRow>& rows) {
  for (const SelfRow& row : rows) {
    SCOPED_TRACE(row.order.ToString());
    const TemporalRelation xs = SortedBy(x, row.order);
    SelfSemijoinOptions options;
    options.order = row.order;
    EXPECT_EQ(
        Measure(MakeSelfContainedSemijoin(VectorStream::Scan(xs), options)),
        row.contained)
        << "Contained-semijoin(X,X)";
    EXPECT_EQ(
        Measure(MakeSelfContainSemijoin(VectorStream::Scan(xs), options)),
        row.contain)
        << "Contain-semijoin(X,X)";
  }
}

// E3 — Table 3 on its two workloads: 1,000 nesting chains of depth 10,
// and 20,000 random intervals (1/lambda = 3, mean duration 20).
TEST(PaperCountersTest, E3Table3NestedChains) {
  Result<TemporalRelation> nested = GenerateNestedIntervals(
      "Nested", /*chain_count=*/1000, /*depth=*/10, /*seed=*/3);
  ASSERT_TRUE(nested.ok());
  CheckTable3(*nested, {
                           {kByValidFromAsc, {1, 9000}, {2, 9000}},
                           {kByValidFromDesc, kRefused, {1, 9000}},
                           {kByValidToAsc, kRefused, {1, 9000}},
                           {kByValidToDesc, {1, 9000}, {2, 9000}},
                       });
}

TEST(PaperCountersTest, E3Table3Random) {
  IntervalWorkloadConfig config;
  config.count = 20'000;
  config.mean_interarrival = 3.0;
  config.mean_duration = 20.0;
  config.seed = 4;
  CheckTable3(Generate("Random", config),
              {
                  {kByValidFromAsc, {1, 16837}, {11, 11284}},
                  {kByValidFromDesc, kRefused, {1, 11284}},
                  {kByValidToAsc, kRefused, {1, 11284}},
                  {kByValidToDesc, {1, 16837}, {12, 11284}},
              });
}

// E9 — the Contain-join read policy: timestamp sweep vs the paper's
// 1/lambda disposal heuristic, X 1/lambda = 4 (mean duration 96) against
// Y 1/lambda in {1, 2, 8, 32} (mean duration 8), 6,000 tuples each.
TEST(PaperCountersTest, E9ReadPolicy) {
  struct Row {
    double y_gap;
    Cell sweep;
    Cell lambda;
  };
  const Row rows[] = {
      {1.0, {39, 125784}, {39, 125784}},
      {2.0, {39, 132650}, {39, 132650}},
      {8.0, {39, 67147}, {36, 67147}},
      {32.0, {39, 17020}, {25, 17020}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE("Y 1/lambda " + std::to_string(row.y_gap));
    IntervalWorkloadConfig config;
    config.count = 6000;
    config.seed = 41;
    config.mean_interarrival = 4.0;
    config.mean_duration = 96.0;
    const TemporalRelation x = SortedBy(Generate("X", config),
                                        kByValidFromAsc);
    config.seed = 42;
    config.mean_interarrival = row.y_gap;
    config.mean_duration = 8.0;
    const TemporalRelation y = SortedBy(Generate("Y", config),
                                        kByValidFromAsc);
    ContainJoinOptions options;
    EXPECT_EQ(Measure(MakeContainJoin(VectorStream::Scan(x),
                                      VectorStream::Scan(y), options)),
              row.sweep)
        << "timestamp sweep";
    options.read_policy = ContainJoinReadPolicy::kLambdaHeuristic;
    EXPECT_EQ(Measure(MakeContainJoin(VectorStream::Scan(x),
                                      VectorStream::Scan(y), options)),
              row.lambda)
        << "lambda heuristic";
  }
}

// A2 — frontier state for the (ValidFrom^, ValidFrom^) Contained-semijoin:
// 20,000 containers (1/lambda = 2) under five duration models against
// 20,000 short containees (exponential, mean 4).
TEST(PaperCountersTest, A2FrontierState) {
  struct Row {
    DurationModel model;
    double mean;
    Cell plain;
    Cell frontier;
  };
  const Row rows[] = {
      {DurationModel::kUniform, 32, {33, 19998}, {12, 19998}},
      {DurationModel::kExponential, 32, {33, 19999}, {8, 19999}},
      {DurationModel::kExponential, 128, {101, 19999}, {9, 19999}},
      {DurationModel::kPareto, 32, {32, 19999}, {7, 19999}},
      {DurationModel::kPareto, 128, {92, 19999}, {6, 19999}},
  };
  for (const Row& row : rows) {
    SCOPED_TRACE("mean duration " + std::to_string(row.mean));
    IntervalWorkloadConfig config;
    config.count = 20'000;
    config.seed = 61;
    config.mean_interarrival = 2.0;
    config.mean_duration = row.mean;
    config.duration_model = row.model;
    const TemporalRelation containers =
        SortedBy(Generate("Y", config), kByValidFromAsc);
    config.seed = 62;
    config.mean_duration = 4.0;
    config.duration_model = DurationModel::kExponential;
    const TemporalRelation containees =
        SortedBy(Generate("X", config), kByValidFromAsc);
    TemporalSemijoinOptions options;
    options.left_order = kByValidFromAsc;
    options.right_order = kByValidFromAsc;
    EXPECT_EQ(Measure(MakeContainedSemijoin(VectorStream::Scan(containees),
                                            VectorStream::Scan(containers),
                                            options)),
              row.plain)
        << "plain state (c)";
    options.use_frontier_state = true;
    EXPECT_EQ(Measure(MakeContainedSemijoin(VectorStream::Scan(containees),
                                            VectorStream::Scan(containers),
                                            options)),
              row.frontier)
        << "frontier state";
  }
}

}  // namespace
}  // namespace tempus

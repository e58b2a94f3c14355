// The endpoint index's ordered scan against the Sort it replaces: the same
// rows, byte for byte and in the same order, for every canonical order,
// tie-heavy data and batch size; plus the index's life cycle in the
// catalog (spill order, replace, snapshot sharing, drop mid-query).

#include "stream/index_scan.h"

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "common/random.h"
#include "datagen/interval_gen.h"
#include "exec/engine.h"
#include "gtest/gtest.h"
#include "join/join_common.h"
#include "plan/planner.h"
#include "relation/catalog.h"
#include "storage/paged_relation.h"
#include "storage/paged_stream.h"
#include "stream/basic_ops.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

/// Drains `stream`: tuple at a time for batch size 0, else through
/// NextBatch with that batch size.
std::vector<Tuple> Drain(TupleStream* stream, size_t batch_size) {
  Result<TemporalRelation> out =
      batch_size == 0 ? Materialize(stream, "out")
                      : MaterializeBatches(stream, "out", batch_size);
  EXPECT_TRUE(out.ok()) << out.status().ToString();
  return out.ok() ? out->tuples() : std::vector<Tuple>();
}

/// Byte-for-byte, in-order comparison of two row sequences.
void ExpectSameRowsInOrder(const std::vector<Tuple>& actual,
                           const std::vector<Tuple>& expected,
                           const std::string& context) {
  ASSERT_EQ(actual.size(), expected.size()) << context;
  for (size_t i = 0; i < actual.size(); ++i) {
    ASSERT_EQ(actual[i].ToString(), expected[i].ToString())
        << context << " row " << i;
  }
}

/// `rel`'s rows in a seeded random storage order, so ties left in storage
/// order by a stable sort are not already in generation order.
TemporalRelation Shuffled(const TemporalRelation& rel, uint64_t seed) {
  std::vector<Tuple> rows = rel.tuples();
  Rng rng(seed);
  for (size_t i = rows.size(); i > 1; --i) {
    std::swap(rows[i - 1], rows[rng.NextBounded(i)]);
  }
  TemporalRelation out(rel.name(), rel.schema());
  for (Tuple& row : rows) EXPECT_TRUE(out.Append(std::move(row)).ok());
  return out;
}

TemporalRelation Generated(double mean_interarrival, double mean_duration,
                           DurationModel model, uint64_t seed) {
  IntervalWorkloadConfig config;
  config.count = 300;
  config.seed = seed;
  config.mean_interarrival = mean_interarrival;
  config.mean_duration = mean_duration;
  config.duration_model = model;
  return Shuffled(GenerateIntervalRelation("R", config).value(), seed);
}

/// Exact duplicate lifespans in interleaved storage order; the surrogate
/// (the row's storage position) tells the copies apart.
TemporalRelation DuplicateIntervals() {
  std::vector<std::pair<TimePoint, TimePoint>> spans;
  for (int copy = 0; copy < 4; ++copy) {
    for (TimePoint t : {5, 0, 5, 3, 0}) spans.push_back({t, t + 4});
    spans.push_back({0, 9});
    spans.push_back({-2, 1});
  }
  return testing::MakeIntervals("R", spans);
}

struct NamedRelation {
  std::string name;
  TemporalRelation relation;
};

std::vector<NamedRelation> TieHeavyRelations() {
  return {
      // The property suite's tie-heavy shapes: every start shared
      // (mean interarrival 0), and unit-scale durations.
      {"bursty_ties", Generated(0.0, 8.0, DurationModel::kExponential, 6)},
      {"unit_durations", Generated(2.0, 1.0, DurationModel::kUniform, 5)},
      {"duplicates", DuplicateIntervals()},
      {"mixed", Generated(4.0, 16.0, DurationModel::kPareto, 4)},
  };
}

TEST(IndexScanTest, MatchesStableSortInEveryOrderAndBatchSize) {
  for (const NamedRelation& named : TieHeavyRelations()) {
    auto relation =
        std::make_shared<const TemporalRelation>(named.relation);
    Result<IndexedStats> indexed = IndexEndpoints(*relation);
    ASSERT_TRUE(indexed.ok()) << indexed.status().ToString();
    auto index =
        std::make_shared<const EndpointIndex>(std::move(indexed->index));
    for (const TemporalSortOrder& order : AllTemporalSortOrders()) {
      const SortSpec spec = order.ToSortSpec(relation->schema()).value();
      for (size_t batch : {size_t{0}, size_t{1}, size_t{3}, size_t{1024}}) {
        const std::string context = named.name + " " + order.ToString() +
                                    " batch " + std::to_string(batch);
        SortStream sorted(VectorStream::Scan(*relation), spec);
        IndexScanStream scan(relation, index, order.field, order.direction);
        ExpectSameRowsInOrder(Drain(&scan, batch), Drain(&sorted, batch),
                              context);
        EXPECT_EQ(scan.metrics().peak_workspace_tuples, 0u) << context;
        // A second pass (Open rewinds) reads the same rows again.
        ExpectSameRowsInOrder(Drain(&scan, batch), Drain(&sorted, batch),
                              context + " second pass");
      }
    }
  }
}

TEST(IndexScanTest, RegistrationStatsMatchDirectCounts) {
  // Max concurrency is checked against a direct count at every start
  // point: ends at t close before starts at t (half-open lifespans).
  for (const NamedRelation& named : TieHeavyRelations()) {
    const TemporalRelation& rel = named.relation;
    const RelationStats stats = rel.ComputeStats().value();
    size_t max_live = 0;
    TimePoint min_from = kMaxTime, max_to = kMinTime, max_from = kMinTime;
    for (size_t i = 0; i < rel.size(); ++i) {
      const TimePoint t = rel.LifespanOf(i).start;
      size_t live = 0;
      for (size_t j = 0; j < rel.size(); ++j) {
        if (rel.LifespanOf(j).ContainsPoint(t)) ++live;
      }
      max_live = std::max(max_live, live);
      min_from = std::min(min_from, t);
      max_from = std::max(max_from, t);
      max_to = std::max(max_to, rel.LifespanOf(i).end);
    }
    EXPECT_EQ(stats.tuple_count, rel.size()) << named.name;
    EXPECT_EQ(stats.max_concurrency, max_live) << named.name;
    EXPECT_EQ(stats.min_valid_from, min_from) << named.name;
    EXPECT_EQ(stats.max_valid_to, max_to) << named.name;
    EXPECT_DOUBLE_EQ(stats.mean_interarrival,
                     static_cast<double>(max_from - min_from) /
                         static_cast<double>(rel.size() - 1))
        << named.name;
  }
}

TEST(IndexScanTest, SpilledRelationScansInIndexOrder) {
  BufferManager pool(4);  // Outlives the engine's page files.
  Engine engine;
  TEMPUS_ASSERT_OK(
      engine.mutable_catalog()->Register(TieHeavyRelations()[0].relation));
  const Catalog::Entry memory = engine.catalog().Find("R").value();
  TEMPUS_ASSERT_OK(engine.SpillRelation("R", 16, &pool));
  const Catalog::Entry disk = engine.catalog().Find("R").value();
  ASSERT_NE(disk.paged, nullptr);
  EXPECT_EQ(ProvidedOrders(disk),
            std::vector<TemporalSortOrder>{kByValidFromAsc});
  EXPECT_EQ(ProvidedOrders(memory).size(), 4u);

  PagedScanStream disk_scan(disk.paged, nullptr);
  IndexScanStream memory_scan(memory.relation, memory.index,
                              TemporalField::kValidFrom,
                              SortDirection::kAscending);
  ExpectSameRowsInOrder(Drain(&disk_scan, 7), Drain(&memory_scan, 7),
                        "spilled");
}

TEST(IndexScanTest, RegisterOrReplaceRebuildsAndSnapshotsShareTheIndex) {
  Catalog catalog;
  TEMPUS_ASSERT_OK(catalog.Register(testing::MakeIntervals(
      "R", {{5, 9}, {0, 3}, {2, 8}})));
  const Catalog::Entry first = catalog.Find("R").value();
  ASSERT_NE(first.index, nullptr);
  EXPECT_EQ(first.index->by_start(), (std::vector<uint32_t>{1, 2, 0}));
  EXPECT_EQ(first.index->by_end(), (std::vector<uint32_t>{1, 2, 0}));
  EXPECT_EQ(first.index->bytes(), 3 * 2 * sizeof(uint32_t));

  const Catalog snapshot = catalog.Snapshot();
  EXPECT_EQ(snapshot.Find("R").value().index.get(), first.index.get());

  catalog.RegisterOrReplace(
      testing::MakeIntervals("R", {{4, 6}, {1, 10}, {4, 5}, {0, 2}}));
  const Catalog::Entry second = catalog.Find("R").value();
  ASSERT_NE(second.index, nullptr);
  EXPECT_NE(second.index.get(), first.index.get());
  EXPECT_EQ(second.index->by_start(), (std::vector<uint32_t>{3, 1, 2, 0}));
  EXPECT_EQ(second.index->by_end(), (std::vector<uint32_t>{3, 2, 0, 1}));
  // The snapshot still reads the index of the relation it pinned.
  EXPECT_EQ(snapshot.Find("R").value().index.get(), first.index.get());
}

TEST(IndexScanTest, DroppedRelationKeepsItsIndexAliveMidQuery) {
  Catalog catalog;
  TEMPUS_ASSERT_OK(catalog.Register(TieHeavyRelations()[2].relation));
  IntegrityCatalog integrity;
  Planner planner(&catalog, &integrity);
  ConjunctiveQuery query;
  query.range_vars = {{"a", "R"}, {"b", "R"}};
  TemporalAtom atom;
  atom.left_var = "a";
  atom.right_var = "b";
  atom.op_name = "overlap";
  atom.mask = AllenMask::Intersecting();
  query.temporal_atoms.push_back(atom);
  Result<PlannedQuery> before = planner.Plan(query);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  Result<TemporalRelation> expected = before->Execute();
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();
  ASSERT_GT(expected->size(), 0u);

  Result<PlannedQuery> plan = planner.Plan(query);
  ASSERT_TRUE(plan.ok()) << plan.status().ToString();
  EXPECT_NE(plan->explain.find("IndexScan R [ValidFrom^]"),
            std::string::npos)
      << plan->explain;
  // The plan's scans now hold the only references to R and its index.
  TEMPUS_ASSERT_OK(catalog.Drop("R"));
  Result<TemporalRelation> result = plan->Execute();
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ExpectSameRowsInOrder(result->tuples(), expected->tuples(), "dropped");
}

}  // namespace
}  // namespace tempus

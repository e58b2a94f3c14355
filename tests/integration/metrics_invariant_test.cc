// Metrics-invariant property suite (docs/OBSERVABILITY.md): every pairwise
// stream operator is drained once over randomized workloads and its
// OperatorMetrics are audited against three invariants:
//
//   1. Reads account for passes: an operator that promises full passes over
//      an input reads exactly |input| x passes tuples from it; early-exit
//      operators read at most that.
//   2. Workspace bounds: peak_workspace_tuples respects the operator's
//      Table 1/2/3 bound (concurrency sums for the sweep join, single-state
//      for the self-semijoins, zero for the buffer-free overlap semijoin).
//   3. The GC ledger balances: every insertion is either still live or was
//      retired, i.e. workspace_inserted == gc_discarded + workspace_tuples,
//      and the live peak never exceeds the insertions that fed it.

#include <memory>
#include <ostream>
#include <utility>
#include <vector>

#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "join/allen_sweep_join.h"
#include "join/before_join.h"
#include "join/contain_join.h"
#include "join/containment_semijoin.h"
#include "join/hash_join.h"
#include "join/nested_loop.h"
#include "join/no_gc_join.h"
#include "join/overlap_semijoin.h"
#include "join/self_semijoin.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::MustMaterialize;
using ::tempus::testing::SortedByOrder;

/// Invariant 3: the GC ledger. Holds for any operator after any number of
/// fresh drains (Open rewinds reset the live count without charging GC).
void ExpectLedgerBalances(const OperatorMetrics& m) {
  EXPECT_EQ(m.workspace_inserted, m.gc_discarded + m.workspace_tuples)
      << "inserted=" << m.workspace_inserted << " gc=" << m.gc_discarded
      << " live=" << m.workspace_tuples;
  EXPECT_LE(static_cast<uint64_t>(m.peak_workspace_tuples),
            m.workspace_inserted);
}

/// Invariant 1: reads account for passes. `exact_*` is false for operators
/// documented to early-exit on that input.
void ExpectReadsMatchPasses(const OperatorMetrics& m, size_t nx, size_t ny,
                            bool exact_left = true, bool exact_right = true) {
  if (exact_left) {
    EXPECT_EQ(m.tuples_read_left, nx * m.passes_left);
  } else {
    EXPECT_LE(m.tuples_read_left, nx * m.passes_left);
  }
  if (exact_right) {
    EXPECT_EQ(m.tuples_read_right, ny * m.passes_right);
  } else {
    EXPECT_LE(m.tuples_read_right, ny * m.passes_right);
  }
}

struct InvariantWorkload {
  const char* name;
  double mean_interarrival;
  double mean_duration;
  uint64_t seed;
};

// Without this gtest prints the raw bytes of the struct, `name` pointer
// included, so the listed test names (and the ctest names discovered from
// them) would change with every address-space layout.
void PrintTo(const InvariantWorkload& w, std::ostream* os) { *os << w.name; }

class MetricsInvariantTest
    : public ::testing::TestWithParam<InvariantWorkload> {
 protected:
  void SetUp() override {
    IntervalWorkloadConfig config;
    config.count = 180;
    config.seed = GetParam().seed;
    config.mean_interarrival = GetParam().mean_interarrival;
    config.mean_duration = GetParam().mean_duration;
    Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
    config.seed = GetParam().seed + 7000;
    Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
    ASSERT_TRUE(x.ok() && y.ok());
    x_ = std::move(x).value();
    y_ = std::move(y).value();
    Result<RelationStats> sx = x_.ComputeStats();
    Result<RelationStats> sy = y_.ComputeStats();
    ASSERT_TRUE(sx.ok() && sy.ok());
    max_concurrency_x_ = sx->max_concurrency;
    max_concurrency_y_ = sy->max_concurrency;
  }

  TemporalRelation x_;
  TemporalRelation y_;
  size_t max_concurrency_x_ = 0;
  size_t max_concurrency_y_ = 0;
};

TEST_P(MetricsInvariantTest, NestedLoopJoin) {
  Result<std::unique_ptr<NestedLoopJoin>> join = NestedLoopJoin::Create(
      VectorStream::Scan(x_), VectorStream::Scan(y_), nullptr);
  ASSERT_TRUE(join.ok());
  (void)MustMaterialize(join->get(), "out");
  const OperatorMetrics& m = (*join)->metrics();
  ExpectReadsMatchPasses(m, x_.size(), y_.size());
  EXPECT_EQ(m.passes_right, x_.size());  // One inner rescan per outer tuple.
  EXPECT_EQ(m.peak_workspace_tuples, 0u);
  ExpectLedgerBalances(m);
}

TEST_P(MetricsInvariantTest, NestedLoopSemijoin) {
  Result<PairPredicate> pred = MakeIntervalPairPredicate(
      x_.schema(), y_.schema(), AllenMask::Intersecting());
  ASSERT_TRUE(pred.ok());
  NestedLoopSemijoin semi(VectorStream::Scan(x_), VectorStream::Scan(y_),
                          *pred);
  (void)MustMaterialize(&semi, "out");
  // The semijoin stops scanning the inner as soon as a witness is found.
  ExpectReadsMatchPasses(semi.metrics(), x_.size(), y_.size(),
                         /*exact_left=*/true, /*exact_right=*/false);
  ExpectLedgerBalances(semi.metrics());
}

TEST_P(MetricsInvariantTest, HashEquiJoin) {
  Result<std::unique_ptr<HashEquiJoin>> join = HashEquiJoin::Create(
      VectorStream::Scan(x_), VectorStream::Scan(y_), {0}, {0}, nullptr,
      {"a", "b"});
  ASSERT_TRUE(join.ok());
  (void)MustMaterialize(join->get(), "out");
  const OperatorMetrics& m = (*join)->metrics();
  ExpectReadsMatchPasses(m, x_.size(), y_.size());
  // Table bound: the build side is materialized, never more.
  EXPECT_LE(m.peak_workspace_tuples, x_.size());
  ExpectLedgerBalances(m);
}

TEST_P(MetricsInvariantTest, NoGcStreamJoin) {
  Result<PairPredicate> pred = MakeIntervalPairPredicate(
      x_.schema(), y_.schema(), AllenMask::Intersecting());
  ASSERT_TRUE(pred.ok());
  Result<std::unique_ptr<NoGcStreamJoin>> join = NoGcStreamJoin::Create(
      VectorStream::Scan(x_), VectorStream::Scan(y_), *pred);
  ASSERT_TRUE(join.ok());
  (void)MustMaterialize(join->get(), "out");
  const OperatorMetrics& m = (*join)->metrics();
  ExpectReadsMatchPasses(m, x_.size(), y_.size());
  // Section 4's motivation: without GC the workspace grows to both inputs.
  EXPECT_EQ(m.peak_workspace_tuples, x_.size() + y_.size());
  EXPECT_EQ(m.gc_discarded, 0u);
  ExpectLedgerBalances(m);
}

TEST_P(MetricsInvariantTest, AllenSweepJoin) {
  const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
  const TemporalRelation ys = SortedByOrder(y_, kByValidFromAsc);
  AllenSweepJoinOptions options;
  options.mask = AllenMask::Intersecting();
  Result<std::unique_ptr<TupleStream>> join = MakeAllenSweepJoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  ASSERT_TRUE(join.ok());
  (void)MustMaterialize(join->get(), "out");
  const OperatorMetrics& m = (*join)->metrics();
  // The sweep stops pulling one side once the other is exhausted and no
  // live state can match, so its reads may fall just short of a full pass.
  ExpectReadsMatchPasses(m, xs.size(), ys.size(),
                         /*exact_left=*/false, /*exact_right=*/false);
  // Table 2 bound: live state is limited by the peak overlap of the two
  // arrival processes (plus the in-hand tuples).
  EXPECT_LE(m.peak_workspace_tuples,
            max_concurrency_x_ + max_concurrency_y_ + 2);
  EXPECT_GT(m.gc_checks, 0u);
  ExpectLedgerBalances(m);
}

TEST_P(MetricsInvariantTest, ContainJoin) {
  const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
  const TemporalRelation ys = SortedByOrder(y_, kByValidFromAsc);
  ContainJoinOptions options;
  options.left_order = kByValidFromAsc;
  options.right_order = kByValidFromAsc;
  Result<std::unique_ptr<TupleStream>> join = MakeContainJoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  ASSERT_TRUE(join.ok());
  (void)MustMaterialize(join->get(), "out");
  const OperatorMetrics& m = (*join)->metrics();
  ExpectReadsMatchPasses(m, xs.size(), ys.size(),
                         /*exact_left=*/false, /*exact_right=*/false);
  EXPECT_GT(m.gc_checks, 0u);
  ExpectLedgerBalances(m);
}

TEST_P(MetricsInvariantTest, ContainmentSemijoins) {
  {
    const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
    const TemporalRelation ys = SortedByOrder(y_, kByValidToAsc);
    Result<std::unique_ptr<TupleStream>> semi =
        MakeContainSemijoin(VectorStream::Scan(xs), VectorStream::Scan(ys),
                            {kByValidFromAsc, kByValidToAsc, true, false});
    ASSERT_TRUE(semi.ok());
    (void)MustMaterialize(semi->get(), "out");
    const OperatorMetrics& m = (*semi)->metrics();
    // The frontier stops reading whichever side the other exhausts first.
    ExpectReadsMatchPasses(m, xs.size(), ys.size(),
                           /*exact_left=*/false, /*exact_right=*/false);
    EXPECT_LE(m.peak_workspace_tuples,
              max_concurrency_x_ + max_concurrency_y_ + 2);
    ExpectLedgerBalances(m);
  }
  {
    const TemporalRelation xs = SortedByOrder(x_, kByValidToAsc);
    const TemporalRelation ys = SortedByOrder(y_, kByValidFromAsc);
    Result<std::unique_ptr<TupleStream>> semi = MakeContainedSemijoin(
        VectorStream::Scan(xs), VectorStream::Scan(ys),
        {kByValidToAsc, kByValidFromAsc, true, false});
    ASSERT_TRUE(semi.ok());
    (void)MustMaterialize(semi->get(), "out");
    const OperatorMetrics& m = (*semi)->metrics();
    ExpectReadsMatchPasses(m, xs.size(), ys.size(),
                           /*exact_left=*/false, /*exact_right=*/false);
    EXPECT_LE(m.peak_workspace_tuples,
              max_concurrency_x_ + max_concurrency_y_ + 2);
    ExpectLedgerBalances(m);
  }
}

TEST_P(MetricsInvariantTest, OverlapSemijoin) {
  const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
  const TemporalRelation ys = SortedByOrder(y_, kByValidFromAsc);
  Result<std::unique_ptr<TupleStream>> semi =
      MakeOverlapSemijoin(VectorStream::Scan(xs), VectorStream::Scan(ys));
  ASSERT_TRUE(semi.ok());
  (void)MustMaterialize(semi->get(), "out");
  const OperatorMetrics& m = (*semi)->metrics();
  // Table 3: the overlap semijoin holds at most the current right tuple —
  // no workspace at all in this implementation.
  EXPECT_EQ(m.peak_workspace_tuples, 0u);
  ExpectReadsMatchPasses(m, xs.size(), ys.size(),
                         /*exact_left=*/true, /*exact_right=*/false);
  ExpectLedgerBalances(m);
}

TEST_P(MetricsInvariantTest, BeforeJoinAndSemijoin) {
  {
    Result<std::unique_ptr<BeforeJoinStream>> join = BeforeJoinStream::Create(
        VectorStream::Scan(x_), VectorStream::Scan(y_));
    ASSERT_TRUE(join.ok());
    (void)MustMaterialize(join->get(), "out");
    const OperatorMetrics& m = (*join)->metrics();
    ExpectReadsMatchPasses(m, x_.size(), y_.size());
    EXPECT_LE(m.peak_workspace_tuples, x_.size() + y_.size());
    ExpectLedgerBalances(m);
  }
  {
    Result<std::unique_ptr<BeforeSemijoin>> semi = BeforeSemijoin::Create(
        VectorStream::Scan(x_), VectorStream::Scan(y_));
    ASSERT_TRUE(semi.ok());
    (void)MustMaterialize(semi->get(), "out");
    const OperatorMetrics& m = (*semi)->metrics();
    // Only needs the latest right endpoint: early exit on both sides.
    ExpectReadsMatchPasses(m, x_.size(), y_.size(),
                           /*exact_left=*/false, /*exact_right=*/false);
    ExpectLedgerBalances(m);
  }
}

TEST_P(MetricsInvariantTest, SelfSemijoins) {
  {
    const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
    SelfSemijoinOptions options;
    options.order = kByValidFromAsc;
    Result<std::unique_ptr<TupleStream>> semi =
        MakeSelfContainedSemijoin(VectorStream::Scan(xs), options);
    ASSERT_TRUE(semi.ok());
    (void)MustMaterialize(semi->get(), "out");
    const OperatorMetrics& m = (*semi)->metrics();
    ExpectReadsMatchPasses(m, xs.size(), 0);
    EXPECT_LE(m.peak_workspace_tuples, 1u);  // Table 3: single-state.
    ExpectLedgerBalances(m);
  }
  {
    const TemporalRelation xs = SortedByOrder(x_, kByValidFromDesc);
    SelfSemijoinOptions options;
    options.order = kByValidFromDesc;
    Result<std::unique_ptr<TupleStream>> semi =
        MakeSelfContainSemijoin(VectorStream::Scan(xs), options);
    ASSERT_TRUE(semi.ok());
    (void)MustMaterialize(semi->get(), "out");
    const OperatorMetrics& m = (*semi)->metrics();
    ExpectReadsMatchPasses(m, xs.size(), 0);
    EXPECT_LE(m.peak_workspace_tuples, 1u);
    ExpectLedgerBalances(m);
  }
}

TEST_P(MetricsInvariantTest, LedgerSurvivesReopen) {
  // Open() rewinds reset the live count without charging GC, so the ledger
  // still balances after a second drain.
  const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
  const TemporalRelation ys = SortedByOrder(y_, kByValidFromAsc);
  AllenSweepJoinOptions options;
  options.mask = AllenMask::Intersecting();
  Result<std::unique_ptr<TupleStream>> join = MakeAllenSweepJoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  ASSERT_TRUE(join.ok());
  const TemporalRelation first = MustMaterialize(join->get(), "first");
  const TemporalRelation second = MustMaterialize(join->get(), "second");
  EXPECT_EQ(first.size(), second.size());
  ExpectLedgerBalances((*join)->metrics());
  EXPECT_EQ((*join)->metrics().passes_left, 2u);
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, MetricsInvariantTest,
    ::testing::Values(InvariantWorkload{"sparse", 16.0, 4.0, 21},
                      InvariantWorkload{"dense", 1.0, 8.0, 22},
                      InvariantWorkload{"long_lived", 2.0, 48.0, 23}),
    [](const ::testing::TestParamInfo<InvariantWorkload>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace tempus

#include "testing/differential.h"

#include <gtest/gtest.h>

#include "testing/oracle.h"
#include "testing/test_util.h"
#include "testing/workload.h"

namespace tempus {
namespace testing {
namespace {

/// Runs one case and reports any failure with its one-line repro command.
void CheckCase(const DifferentialCase& c) {
  SCOPED_TRACE(ReproCommand(c));
  Result<DifferentialResult> result = RunDifferentialCase(c);
  ASSERT_TRUE(result.ok()) << result.status().ToString() << "\n  repro: "
                           << ReproCommand(c);
  EXPECT_TRUE(result->match) << "output mismatch (engine="
                             << result->engine_tuples
                             << " oracle=" << result->oracle_tuples
                             << "): " << result->diff << "\n  repro: "
                             << ReproCommand(c);
  EXPECT_TRUE(result->bound_ok)
      << "workspace bound violated: peak=" << result->peak_workspace
      << " bound=" << result->bound << "\n  repro: " << ReproCommand(c);
  EXPECT_TRUE(result->ledger_ok)
      << "GC ledger broken\n  repro: " << ReproCommand(c);
  EXPECT_TRUE(result->batch_one_ok)
      << "output diverged from the same case at batch 1: " << result->diff
      << "\n  repro: " << ReproCommand(c);
  EXPECT_TRUE(result->order_ok)
      << "output broke its promised order: " << result->diff
      << "\n  repro: " << ReproCommand(c);
}

/// Every operator, every supported order combination, across all six
/// adversarial distributions.
/// Arrangements rotate deterministically so each shows up; seeds are fixed
/// functions of the case index for reproducibility.
TEST(DifferentialSuite, StreamModesAgreeWithOracleEverywhere) {
  size_t case_index = 0;
  for (PairwiseOp op : AllPairwiseOps()) {
    for (const auto& [lo, ro] : SupportedOrders(op)) {
      for (Distribution dist : AllDistributions()) {
        DifferentialCase c;
        c.op = op;
        c.distribution = dist;
        c.arrangement =
            AllArrangements()[case_index % AllArrangements().size()];
        c.count = 40;
        c.seed = 1000 + case_index;
        c.left_order = lo;
        c.right_order = ro;
        CheckCase(c);
        ++case_index;
      }
    }
  }
  // 10 operators x (2..4 orders) x 6 distributions.
  EXPECT_GE(case_index, 10u * 2u * 6u);
}

/// The no-GC degenerate execution is order-free: run it under every input
/// arrangement and distribution. Together with the stream-mode sweep this
/// gives every operator at least three distinct input orders even where
/// the sequential operator admits only two.
TEST(DifferentialSuite, NoGcModeAgreesWithOracleUnderAnyOrder) {
  size_t case_index = 0;
  for (PairwiseOp op : AllPairwiseOps()) {
    // The sequenced operators have no order-free degenerate twin.
    if (!HasNoGcMode(op)) continue;
    for (Distribution dist : AllDistributions()) {
      for (Arrangement arr : AllArrangements()) {
        DifferentialCase c;
        c.op = op;
        c.mode = ExecMode::kNoGc;
        c.distribution = dist;
        c.arrangement = arr;
        c.count = 40;
        c.seed = 5000 + case_index;
        CheckCase(c);
        ++case_index;
      }
    }
  }
  EXPECT_EQ(case_index, 10u * 6u * 3u);
}

/// Degenerate relation sizes: empty and singleton operands through every
/// operator and mode.
TEST(DifferentialSuite, EmptyAndSingletonOperands) {
  for (PairwiseOp op : AllPairwiseOps()) {
    for (size_t count : {size_t{0}, size_t{1}}) {
      for (ExecMode mode : {ExecMode::kSequential, ExecMode::kNoGc}) {
        if (mode == ExecMode::kNoGc && !HasNoGcMode(op)) continue;
        DifferentialCase c;
        c.op = op;
        c.mode = mode;
        c.distribution = Distribution::kRandomMix;
        c.arrangement = Arrangement::kSorted;
        c.count = count;
        c.seed = 77 + count;
        const auto orders = SupportedOrders(op);
        c.left_order = orders.front().first;
        c.right_order = orders.front().second;
        CheckCase(c);
      }
    }
  }
}

/// The mirror orderings (descending variants) get an extra dense pass:
/// reflection bugs hide in tie handling, which kDuplicateEndpoints
/// maximizes.
TEST(DifferentialSuite, MirrorOrdersOnDuplicateEndpoints) {
  size_t case_index = 0;
  for (PairwiseOp op : AllPairwiseOps()) {
    for (const auto& [lo, ro] : SupportedOrders(op)) {
      if (lo.direction != SortDirection::kDescending &&
          ro.direction != SortDirection::kDescending) {
        continue;
      }
      DifferentialCase c;
      c.op = op;
      c.mode = ExecMode::kSequential;
      c.distribution = Distribution::kDuplicateEndpoints;
      c.arrangement = Arrangement::kShuffled;
      c.count = 96;
      c.seed = 9000 + case_index;
      c.left_order = lo;
      c.right_order = ro;
      CheckCase(c);
      ++case_index;
    }
  }
  EXPECT_GT(case_index, 0u);
}

/// Disk-backed storage through a deliberately tiny 4-frame buffer pool:
/// every operator in every execution mode, with each operand spilled to
/// 20 compressed pages (40 pages total against 4 frames, 10x the budget,
/// so the pool evicts continuously), still matches the in-memory oracle
/// exactly.
TEST(DifferentialSuite, DiskModeThroughTinyPoolAgreesWithOracle) {
  size_t case_index = 0;
  size_t expected = 0;
  for (PairwiseOp op : AllPairwiseOps()) {
    for (ExecMode mode : {ExecMode::kSequential, ExecMode::kNoGc}) {
      if (mode == ExecMode::kNoGc && !HasNoGcMode(op)) continue;
      ++expected;
      DifferentialCase c;
      c.op = op;
      c.mode = mode;
      c.distribution =
          AllDistributions()[case_index % AllDistributions().size()];
      c.arrangement =
          AllArrangements()[case_index % AllArrangements().size()];
      c.count = 160;  // 20 pages per operand at 8 tuples/page.
      c.seed = 12000 + case_index;
      const auto orders = SupportedOrders(op);
      c.left_order = orders.front().first;
      c.right_order = orders.front().second;
      c.storage = StorageMode::kDisk;
      c.frame_budget = 4;
      c.tuples_per_page = 8;
      CheckCase(c);
      ++case_index;
    }
  }
  EXPECT_EQ(case_index, expected);
}

/// The acceptance case spelled out: a Contain-join whose dataset is far
/// more than 4x the frame budget completes byte-identically against the
/// oracle while the pool reports real misses, evictions, and a
/// compression ratio above 1.
TEST(DifferentialSuite, ContainJoinOnDiskReportsPoolTrafficAndMatches) {
  DifferentialCase c;
  c.op = PairwiseOp::kContainJoin;
  c.mode = ExecMode::kSequential;
  c.distribution = Distribution::kRandomMix;
  c.arrangement = Arrangement::kShuffled;
  c.count = 256;  // 32 pages per operand at 8 tuples/page vs 4 frames.
  c.seed = 424242;
  const auto orders = SupportedOrders(c.op);
  c.left_order = orders.front().first;
  c.right_order = orders.front().second;
  c.storage = StorageMode::kDisk;
  c.frame_budget = 4;
  c.tuples_per_page = 8;
  SCOPED_TRACE(ReproCommand(c));
  Result<DifferentialResult> r = RunDifferentialCase(c);
  ASSERT_TRUE(r.ok()) << r.status().ToString();
  EXPECT_TRUE(r->match) << r->diff;
  EXPECT_GT(r->engine_tuples, 0u);
  EXPECT_GT(r->buffer_misses, 0u);
  EXPECT_GT(r->buffer_evictions, 0u);
  EXPECT_GT(r->compression_ratio, 1.0);
}

/// Regression: the sweep Contained-semijoin used to buffer containers that
/// could never witness anything (dead on arrival), blowing through the
/// Table 1 state bound on low-overlap inputs (peak 7 against a bound of 4
/// on this exact case before the fix).
TEST(DifferentialSuite, ContainedSemijoinSweepRespectsBoundOnMeets) {
  DifferentialCase c;
  c.op = PairwiseOp::kContainedSemijoin;
  c.mode = ExecMode::kSequential;
  c.distribution = Distribution::kSequentialMeets;
  c.arrangement = Arrangement::kSorted;
  c.count = 48;
  c.seed = 619;
  c.left_order = kByValidToDesc;
  c.right_order = kByValidToDesc;
  CheckCase(c);
}

/// The batch axis (docs/BATCH.md): every operator at batch sizes 1, 3, 64,
/// and 1024. Each case checks three ways at once —
/// byte-identical to the brute-force oracle, byte-identical and in order
/// to the same case at batch 1, and ledger/bound clean on both.
TEST(DifferentialSuite, BatchSizesAgreeWithOracleAndTuplePath) {
  size_t case_index = 0;
  for (PairwiseOp op : AllPairwiseOps()) {
    for (size_t batch : {size_t{1}, size_t{3}, size_t{64}, size_t{1024}}) {
      DifferentialCase c;
      c.op = op;
      c.distribution =
          AllDistributions()[case_index % AllDistributions().size()];
      c.arrangement =
          AllArrangements()[case_index % AllArrangements().size()];
      c.count = 48;
      c.seed = 21000 + case_index;
      const auto orders = SupportedOrders(op);
      c.left_order = orders[case_index % orders.size()].first;
      c.right_order = orders[case_index % orders.size()].second;
      c.batch_size = batch;
      CheckCase(c);
      ++case_index;
    }
  }
  EXPECT_EQ(case_index, AllPairwiseOps().size() * 4);
}

/// The kernel axis: every operator's plan wrapped in the compiled endpoint
/// filter, on the vectorized and the per-row path, at a multi-row batch
/// size — still byte-identical to the identically filtered oracle and, in
/// order, to the same wrapped case at batch 1.
TEST(DifferentialSuite, KernelAxisAgreesWithOracleAndBatchOne) {
  size_t case_index = 0;
  for (PairwiseOp op : AllPairwiseOps()) {
    for (KernelMode kernel : {KernelMode::kVector, KernelMode::kInterp}) {
      DifferentialCase c;
      c.op = op;
      c.distribution =
          AllDistributions()[case_index % AllDistributions().size()];
      c.arrangement =
          AllArrangements()[case_index % AllArrangements().size()];
      c.count = 48;
      c.seed = 25000 + case_index;
      const auto orders = SupportedOrders(op);
      c.left_order = orders[case_index % orders.size()].first;
      c.right_order = orders[case_index % orders.size()].second;
      c.batch_size = 16;
      c.kernel = kernel;
      CheckCase(c);
      ++case_index;
    }
  }
  EXPECT_EQ(case_index, AllPairwiseOps().size() * 2);
}

/// Batch execution over disk-resident operands: the batch readers pull
/// pinned pages through the scan's buffer pool, and the result must still
/// match both the oracle and the same case at batch 1.
TEST(DifferentialSuite, BatchOverDiskStorageAgreesEverywhere) {
  size_t case_index = 0;
  for (PairwiseOp op : AllPairwiseOps()) {
    DifferentialCase c;
    c.op = op;
    c.mode = ExecMode::kSequential;
    c.distribution =
        AllDistributions()[case_index % AllDistributions().size()];
    c.arrangement = Arrangement::kShuffled;
    c.count = 96;  // 12 pages per operand at 8 tuples/page vs 4 frames.
    c.seed = 23000 + case_index;
    const auto orders = SupportedOrders(op);
    c.left_order = orders.front().first;
    c.right_order = orders.front().second;
    c.storage = StorageMode::kDisk;
    c.frame_budget = 4;
    c.tuples_per_page = 8;
    c.batch_size = 64;
    CheckCase(c);
    ++case_index;
  }
  EXPECT_EQ(case_index, AllPairwiseOps().size());
}

/// The dead-on-arrival meets-chain regression, replayed on the batch path:
/// the Table 1 bound must hold at every batch size, including 1.
TEST(DifferentialSuite, BatchContainedSemijoinSweepRespectsBoundOnMeets) {
  for (size_t batch : {size_t{1}, size_t{3}, size_t{64}}) {
    DifferentialCase c;
    c.op = PairwiseOp::kContainedSemijoin;
    c.mode = ExecMode::kSequential;
    c.distribution = Distribution::kSequentialMeets;
    c.arrangement = Arrangement::kSorted;
    c.count = 48;
    c.seed = 619;
    c.left_order = kByValidToDesc;
    c.right_order = kByValidToDesc;
    c.batch_size = batch;
    CheckCase(c);
  }
}

TEST(DifferentialSuite, ReproCommandRoundTripsItsTokens) {
  DifferentialCase c;
  c.op = PairwiseOp::kSelfContainSemijoin;
  c.mode = ExecMode::kNoGc;
  c.distribution = Distribution::kNestedChains;
  c.arrangement = Arrangement::kReverse;
  const std::string repro = ReproCommand(c);
  EXPECT_NE(repro.find("--op=self-contain-semijoin"), std::string::npos);
  EXPECT_NE(repro.find("--mode=nogc"), std::string::npos);
  EXPECT_NE(repro.find("--dist=nested-chains"), std::string::npos);
  EXPECT_NE(repro.find("--arrangement=reverse"), std::string::npos);
  // The batch size is always spelled out; the default resolves.
  EXPECT_NE(repro.find("--batch=" + std::to_string(DefaultBatchSize())),
            std::string::npos);
  c.batch_size = 3;
  EXPECT_NE(ReproCommand(c).find("--batch=3"), std::string::npos);
  c.kernel = KernelMode::kInterp;
  EXPECT_NE(ReproCommand(c).find("--kernel=interp"), std::string::npos);
  c.kernel = KernelMode::kOff;
  TEMPUS_ASSERT_OK(KernelModeFromName("vector").status());
  EXPECT_FALSE(KernelModeFromName("simd").ok());
  TEMPUS_ASSERT_OK(PairwiseOpFromName("self-contain-semijoin").status());
  TEMPUS_ASSERT_OK(ExecModeFromName("nogc").status());
  TEMPUS_ASSERT_OK(DistributionFromName("nested-chains").status());
  TEMPUS_ASSERT_OK(ArrangementFromName("reverse").status());
  TEMPUS_ASSERT_OK(OrderFromToken("to-desc").status());

  c.storage = StorageMode::kDisk;
  c.frame_budget = 4;
  c.tuples_per_page = 8;
  const std::string disk_repro = ReproCommand(c);
  EXPECT_NE(disk_repro.find("--storage=disk"), std::string::npos);
  EXPECT_NE(disk_repro.find("--frames=4"), std::string::npos);
  EXPECT_NE(disk_repro.find("--page=8"), std::string::npos);
  TEMPUS_ASSERT_OK(StorageModeFromName("disk").status());
  TEMPUS_ASSERT_OK(StorageModeFromName("memory").status());
  EXPECT_FALSE(StorageModeFromName("floppy").ok());
}

/// The oracle itself on a hand-checked micro-instance: guards against the
/// oracle and engine agreeing on the wrong answer.
TEST(DifferentialSuite, OracleMatchesHandComputedTruth) {
  const TemporalRelation x = MakeIntervals("x", {{0, 10}, {2, 5}, {11, 12}});
  const TemporalRelation y = MakeIntervals("y", {{1, 6}, {20, 30}});
  // Contain-join: x[0]=[0,10) strictly contains y[0]=[1,6). Nothing else.
  Result<TemporalRelation> contain =
      OracleEvaluate(PairwiseOp::kContainJoin, x, y);
  ASSERT_TRUE(contain.ok());
  EXPECT_EQ(contain->size(), 1u);
  // Before-join: pairs with X.TE < Y.TS: [0,10)x[20,30), [2,5)x[20,30),
  // [11,12)x[20,30).
  Result<TemporalRelation> before =
      OracleEvaluate(PairwiseOp::kBeforeJoin, x, y);
  ASSERT_TRUE(before.ok());
  EXPECT_EQ(before->size(), 3u);
  // Self Contained-semijoin: [2,5) is inside [0,10).
  Result<TemporalRelation> self =
      OracleEvaluate(PairwiseOp::kSelfContainedSemijoin, x, x);
  ASSERT_TRUE(self.ok());
  ASSERT_EQ(self->size(), 1u);
  EXPECT_EQ(self->tuple(0)[0].int_value(), 1);
}

}  // namespace
}  // namespace testing
}  // namespace tempus

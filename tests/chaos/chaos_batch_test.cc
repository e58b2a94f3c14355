// Chaos coverage for the batch-at-a-time path (docs/BATCH.md): the
// "batch.alloc" fault point fires inside TupleBatch::Reserve, i.e. on
// every batch handed across an operator edge. An injected allocation
// failure must surface as a clean Status (no partial rows reported as
// success, no crash, no leak under ASan) and the GC-ledger identity must
// hold on the abandoned plan, exactly like the stream.next fault point's
// contract.

#include <memory>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/fault.h"
#include "join/batch_sweep.h"
#include "join/containment_semijoin.h"
#include "stream/batch.h"
#include "stream/stream.h"
#include "testing/test_util.h"
#include "testing/workload.h"

namespace tempus {
namespace {

using testing::Arrangement;
using testing::Distribution;
using testing::MakeWorkloadRelation;
using testing::SortedByOrder;
using testing::WorkloadSpec;

class ChaosBatchTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  void MakeSortedPair(TemporalRelation* left, TemporalRelation* right) {
    WorkloadSpec spec;
    spec.distribution = Distribution::kRandomMix;
    spec.arrangement = Arrangement::kShuffled;
    spec.count = 64;
    spec.seed = 142;
    Result<TemporalRelation> x = MakeWorkloadRelation("x", spec);
    TEMPUS_ASSERT_OK(x.status());
    spec.seed = 143;
    Result<TemporalRelation> y = MakeWorkloadRelation("y", spec);
    TEMPUS_ASSERT_OK(y.status());
    *left = SortedByOrder(*x, kByValidFromAsc);
    *right = SortedByOrder(*y, kByValidFromAsc);
  }

  std::unique_ptr<TupleStream> MakeBatchJoin(const TemporalRelation& left,
                                             const TemporalRelation& right) {
    ContainJoinOptions options;
    options.batch_size = 8;
    Result<std::unique_ptr<TupleStream>> join = MakeContainJoin(
        VectorStream::Scan(left), VectorStream::Scan(right), options);
    EXPECT_TRUE(join.ok()) << join.status().ToString();
    return join.ok() ? std::move(join).value() : nullptr;
  }

  void ExpectLedgerHolds(const TupleStream& root) {
    const OperatorMetrics m = CollectPlanMetrics(root);
    EXPECT_EQ(m.workspace_inserted, m.gc_discarded + m.workspace_tuples);
  }
};

TEST_F(ChaosBatchTest, FirstAllocationFaultFailsBeforeAnyRows) {
  TemporalRelation left("l", Schema()), right("r", Schema());
  MakeSortedPair(&left, &right);
  std::unique_ptr<TupleStream> join = MakeBatchJoin(left, right);
  ASSERT_NE(join, nullptr);

  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.message = "batch arena exhausted";
  FaultInjector::Global().Arm("batch.alloc", spec);

  Result<TemporalRelation> out = MaterializeBatches(join.get(), "out", 8);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(FaultInjector::Global().FireCount("batch.alloc"), 1u);
  ExpectLedgerHolds(*join);
}

TEST_F(ChaosBatchTest, NthAllocationFaultAbandonsDrainWithLedgerIntact) {
  TemporalRelation left("l", Schema()), right("r", Schema());
  MakeSortedPair(&left, &right);

  // Clean reference run.
  std::unique_ptr<TupleStream> clean = MakeBatchJoin(left, right);
  ASSERT_NE(clean, nullptr);
  Result<TemporalRelation> expected =
      MaterializeBatches(clean.get(), "expected", 8);
  TEMPUS_ASSERT_OK(expected.status());
  ASSERT_GT(expected->size(), 0u);

  // Fail the Nth batch allocation: mid-drain, with sweep state live in
  // both workspaces and rows already emitted.
  std::unique_ptr<TupleStream> join = MakeBatchJoin(left, right);
  ASSERT_NE(join, nullptr);
  FaultSpec spec;
  spec.trigger_at = 7;
  FaultInjector::Global().Arm("batch.alloc", spec);

  Result<TemporalRelation> out = MaterializeBatches(join.get(), "out", 8);
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  EXPECT_EQ(FaultInjector::Global().FireCount("batch.alloc"), 1u);
  // The abandoned plan's GC ledger still balances: nothing inserted into a
  // workspace was lost track of when the pipeline unwound.
  ExpectLedgerHolds(*join);

  // Recovery: disarm, reopen the same plan, full result.
  FaultInjector::Global().Reset();
  Result<TemporalRelation> retry = MaterializeBatches(join.get(), "retry", 8);
  TEMPUS_ASSERT_OK(retry.status());
  testing::ExpectSameTuples(*retry, *expected);
}

TEST_F(ChaosBatchTest, TupleAdapterDrainHitsTheSamePoint) {
  // Even a tuple-at-a-time consumer of a batch operator goes through
  // batch allocation internally (the adapter refills its own batch), so
  // the fault must be reachable from Materialize() too.
  TemporalRelation left("l", Schema()), right("r", Schema());
  MakeSortedPair(&left, &right);
  std::unique_ptr<TupleStream> join = MakeBatchJoin(left, right);
  ASSERT_NE(join, nullptr);

  FaultSpec spec;
  spec.trigger_at = 3;
  FaultInjector::Global().Arm("batch.alloc", spec);

  Result<TemporalRelation> out = Materialize(join.get(), "out");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(FaultInjector::Global().FireCount("batch.alloc"), 1u);
  ExpectLedgerHolds(*join);
}

TEST_F(ChaosBatchTest, RepeatedFaultNeverWedgesTheOperator) {
  // Every allocation from the 2nd on fails, repeatedly: each drain attempt
  // must fail cleanly, and clearing the fault restores full function.
  TemporalRelation left("l", Schema()), right("r", Schema());
  MakeSortedPair(&left, &right);
  std::unique_ptr<TupleStream> join = MakeBatchJoin(left, right);
  ASSERT_NE(join, nullptr);

  FaultSpec spec;
  spec.trigger_at = 2;
  spec.repeat = true;
  spec.code = StatusCode::kUnavailable;
  FaultInjector::Global().Arm("batch.alloc", spec);

  for (int attempt = 0; attempt < 3; ++attempt) {
    Result<TemporalRelation> out = MaterializeBatches(join.get(), "out", 8);
    EXPECT_FALSE(out.ok()) << "attempt " << attempt;
    ExpectLedgerHolds(*join);
  }

  FaultInjector::Global().Reset();
  Result<TemporalRelation> ok = MaterializeBatches(join.get(), "ok", 8);
  TEMPUS_ASSERT_OK(ok.status());
  EXPECT_GT(ok->size(), 0u);
}

TEST_F(ChaosBatchTest, DirectReserveGoesThroughTheFaultPoint) {
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  FaultInjector::Global().Arm("batch.alloc", spec);
  TupleBatch batch;
  const Status status = batch.Reserve(16);
  EXPECT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kUnavailable);
  FaultInjector::Global().Reset();
  TEMPUS_EXPECT_OK(batch.Reserve(16));
}

}  // namespace
}  // namespace tempus

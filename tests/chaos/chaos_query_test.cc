#include <memory>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "buffer/buffer_manager.h"
#include "common/cancellation.h"
#include "common/fault.h"
#include "exec/engine.h"
#include "join/batch_sweep.h"
#include "storage/external_sort.h"
#include "storage/paged_stream.h"
#include "stream/stream.h"
#include "testing/test_util.h"
#include "testing/workload.h"

namespace tempus {
namespace {

using testing::Arrangement;
using testing::Distribution;
using testing::MakeIntervals;
using testing::MakeWorkloadRelation;
using testing::SortedByOrder;
using testing::WorkloadSpec;

/// Chaos driver: runs query pipelines while registered fault points fire,
/// asserting the failure contract — a fired error fault yields a failed
/// Status (never partial rows reported as success), the GC ledger identity
/// survives abandoned drains, and the process recovers once faults clear.
class ChaosQueryTest : public ::testing::Test {
 protected:
  void SetUp() override { FaultInjector::Global().Reset(); }
  void TearDown() override { FaultInjector::Global().Reset(); }

  /// A deterministic workload pair sorted for the (from-asc, from-asc)
  /// Contain-join.
  void MakeSortedPair(TemporalRelation* left, TemporalRelation* right) {
    WorkloadSpec spec;
    spec.distribution = Distribution::kRandomMix;
    spec.arrangement = Arrangement::kShuffled;
    spec.count = 64;
    spec.seed = 42;
    Result<TemporalRelation> x = MakeWorkloadRelation("x", spec);
    TEMPUS_ASSERT_OK(x.status());
    spec.seed = 43;
    Result<TemporalRelation> y = MakeWorkloadRelation("y", spec);
    TEMPUS_ASSERT_OK(y.status());
    *left = SortedByOrder(*x, kByValidFromAsc);
    *right = SortedByOrder(*y, kByValidFromAsc);
  }

  /// Builds a Contain-join over the pair.
  std::unique_ptr<TupleStream> MakeJoin(const TemporalRelation& left,
                                        const TemporalRelation& right) {
    Result<std::unique_ptr<TupleStream>> join = MakeContainJoin(
        VectorStream::Scan(left), VectorStream::Scan(right),
        ContainJoinOptions{});
    EXPECT_TRUE(join.ok()) << join.status().ToString();
    return join.ok() ? std::move(join).value() : nullptr;
  }

  /// Asserts the cumulative GC-ledger identity over the whole plan — it
  /// must hold even at the point of abandonment.
  void ExpectLedgerHolds(const TupleStream& root) {
    const OperatorMetrics m = CollectPlanMetrics(root);
    EXPECT_EQ(m.workspace_inserted, m.gc_discarded + m.workspace_tuples);
  }
};

TEST_F(ChaosQueryTest, OpenFaultFailsTheQueryBeforeAnyRows) {
  TemporalRelation left("l", Schema()), right("r", Schema());
  MakeSortedPair(&left, &right);
  std::unique_ptr<TupleStream> join = MakeJoin(left, right);
  ASSERT_NE(join, nullptr);

  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.message = "open refused";
  FaultInjector::Global().Arm("stream.open", spec);

  Status open = join->Open();
  EXPECT_FALSE(open.ok());
  EXPECT_EQ(open.code(), StatusCode::kUnavailable);
  EXPECT_GE(FaultInjector::Global().FireCount("stream.open"), 1u);
  ExpectLedgerHolds(*join);
}

TEST_F(ChaosQueryTest, MidDrainNextFaultNeverYieldsPartialSuccess) {
  TemporalRelation left("l", Schema()), right("r", Schema());
  MakeSortedPair(&left, &right);

  // Reference run without faults.
  std::unique_ptr<TupleStream> clean = MakeJoin(left, right);
  ASSERT_NE(clean, nullptr);
  const TemporalRelation expected =
      testing::MustMaterialize(clean.get(), "expected");
  ASSERT_GT(expected.size(), 0u);

  // Fault at the 25th Next() across the plan: mid-drain, after rows have
  // already flowed.
  std::unique_ptr<TupleStream> join = MakeJoin(left, right);
  ASSERT_NE(join, nullptr);
  FaultSpec spec;
  spec.trigger_at = 25;
  FaultInjector::Global().Arm("stream.next", spec);

  Result<TemporalRelation> out = Materialize(join.get(), "out");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  EXPECT_EQ(FaultInjector::Global().FireCount("stream.next"), 1u);
  ExpectLedgerHolds(*join);

  // Recovery: disarm, reopen the same plan, and the full result appears.
  FaultInjector::Global().Reset();
  const TemporalRelation retry = testing::MustMaterialize(join.get(), "retry");
  testing::ExpectSameTuples(retry, expected);
}

TEST_F(ChaosQueryTest, CancelFaultUnwindsThePlanAsCancelled) {
  TemporalRelation left("l", Schema()), right("r", Schema());
  MakeSortedPair(&left, &right);
  std::unique_ptr<TupleStream> join = MakeJoin(left, right);
  ASSERT_NE(join, nullptr);

  CancellationToken token;
  join->SetCancellation(&token);
  FaultSpec spec;
  spec.action = FaultAction::kCancel;
  spec.token = &token;
  spec.trigger_at = 10;
  FaultInjector::Global().Arm("stream.next", spec);

  TEMPUS_ASSERT_OK(join->Open());
  Result<TemporalRelation> out = Materialize(join.get(), "out");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kCancelled);
  // The token itself tripped: every subsequent poll refuses too.
  EXPECT_FALSE(token.Check().ok());
  ExpectLedgerHolds(*join);
}

TEST_F(ChaosQueryTest, DelayFaultSlowsButDoesNotCorrupt) {
  TemporalRelation left("l", Schema()), right("r", Schema());
  MakeSortedPair(&left, &right);
  std::unique_ptr<TupleStream> clean = MakeJoin(left, right);
  ASSERT_NE(clean, nullptr);
  const TemporalRelation expected =
      testing::MustMaterialize(clean.get(), "expected");

  std::unique_ptr<TupleStream> join = MakeJoin(left, right);
  ASSERT_NE(join, nullptr);
  FaultSpec spec;
  spec.action = FaultAction::kDelay;
  spec.delay_ms = 2;
  spec.trigger_at = 5;
  FaultInjector::Global().Arm("stream.next", spec);

  TEMPUS_ASSERT_OK(join->Open());
  Result<TemporalRelation> out = Materialize(join.get(), "out");
  TEMPUS_ASSERT_OK(out.status());
  EXPECT_EQ(FaultInjector::Global().FireCount("stream.next"), 1u);
  testing::ExpectSameTuples(*out, expected);
}

TEST_F(ChaosQueryTest, PagedReadFaultStopsTheScanWithoutChargingTheePage) {
  const TemporalRelation rel = MakeIntervals(
      "r", {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 6}, {6, 7}, {7, 8}});
  Result<PagedRelation> paged = PagedRelation::FromRelation(rel, 4);
  TEMPUS_ASSERT_OK(paged.status());
  ASSERT_EQ(paged->page_count(), 2u);

  PageIoCounter io;
  PagedScanStream scan(&*paged, &io);
  FaultSpec spec;
  spec.trigger_at = 2;  // Second page-charge attempt.
  spec.code = StatusCode::kUnavailable;
  spec.message = "bad sector";
  FaultInjector::Global().Arm("storage.page_read", spec);

  TEMPUS_ASSERT_OK(scan.Open());
  Result<TemporalRelation> out = Materialize(&scan, "out");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  // The failed transfer was never charged: only page one was read.
  EXPECT_EQ(io.reads(), 1u);
}

TEST_F(ChaosQueryTest, PageWriteFaultFailsTheSpillAndClearsForRetry) {
  BufferManager pool(4);
  WorkloadSpec spec;
  spec.count = 32;
  spec.seed = 11;
  Result<TemporalRelation> rel = MakeWorkloadRelation("r", spec);
  TEMPUS_ASSERT_OK(rel.status());

  FaultSpec fault;
  fault.trigger_at = 2;  // The first page lands; the second write fails.
  fault.code = StatusCode::kUnavailable;
  fault.message = "disk full";
  FaultInjector::Global().Arm("buffer.page_write", fault);
  Result<PagedRelation> disk = PagedRelation::SpillToDisk(*rel, 8, &pool);
  EXPECT_FALSE(disk.ok());
  EXPECT_EQ(disk.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(FaultInjector::Global().FireCount("buffer.page_write"), 1u);

  // Recovery: the identical spill succeeds once the fault clears.
  FaultInjector::Global().Reset();
  Result<PagedRelation> retry = PagedRelation::SpillToDisk(*rel, 8, &pool);
  TEMPUS_ASSERT_OK(retry.status());
  EXPECT_EQ(retry->tuple_count(), rel->size());
}

TEST_F(ChaosQueryTest, BufferReadFaultFailsTheScanButTheDataSurvives) {
  BufferManager pool(4);
  WorkloadSpec spec;
  spec.count = 64;  // 8 pages at 8 tuples/page.
  spec.seed = 12;
  Result<TemporalRelation> rel = MakeWorkloadRelation("r", spec);
  TEMPUS_ASSERT_OK(rel.status());
  Result<PagedRelation> disk = PagedRelation::SpillToDisk(*rel, 8, &pool);
  TEMPUS_ASSERT_OK(disk.status());

  FaultSpec fault;
  fault.trigger_at = 3;  // Mid-scan: pin or readahead, whichever gets there.
  fault.code = StatusCode::kUnavailable;
  fault.message = "bad sector";
  FaultInjector::Global().Arm("buffer.page_read", fault);

  PagedScanStream scan(&*disk, nullptr);
  Result<TemporalRelation> out = Materialize(&scan, "out");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(FaultInjector::Global().FireCount("buffer.page_read"), 1u);

  // Recovery: the pages on disk are intact; a clean re-scan returns the
  // whole relation.
  FaultInjector::Global().Reset();
  const TemporalRelation again = testing::MustMaterialize(&scan, "again");
  testing::ExpectSameTuples(again, *rel);
}

TEST_F(ChaosQueryTest, EvictionFaultFailsThePinThatNeededRoom) {
  BufferManager pool(1);  // Every page advance must evict its predecessor.
  WorkloadSpec spec;
  spec.count = 32;  // 4 pages through a one-frame pool.
  spec.seed = 13;
  Result<TemporalRelation> rel = MakeWorkloadRelation("r", spec);
  TEMPUS_ASSERT_OK(rel.status());
  Result<PagedRelation> disk = PagedRelation::SpillToDisk(*rel, 8, &pool);
  TEMPUS_ASSERT_OK(disk.status());

  FaultSpec fault;
  FaultInjector::Global().Arm("buffer.evict", fault);
  PagedScanStream scan(&*disk, nullptr);
  Result<TemporalRelation> out = Materialize(&scan, "out");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kInternal);
  EXPECT_GE(FaultInjector::Global().FireCount("buffer.evict"), 1u);

  // The pool is not wedged: with the fault gone the same scan completes
  // and evicts its way through the file as designed.
  FaultInjector::Global().Reset();
  const TemporalRelation again = testing::MustMaterialize(&scan, "again");
  testing::ExpectSameTuples(again, *rel);
  EXPECT_GT(pool.Stats().evictions, 0u);
}

TEST_F(ChaosQueryTest, SortSpillFaultFailsOpen) {
  WorkloadSpec spec;
  spec.count = 40;
  spec.seed = 7;
  Result<TemporalRelation> rel = MakeWorkloadRelation("r", spec);
  TEMPUS_ASSERT_OK(rel.status());
  Result<SortSpec> order = kByValidFromAsc.ToSortSpec(rel->schema());
  TEMPUS_ASSERT_OK(order.status());
  Result<std::unique_ptr<ExternalSortStream>> sort = ExternalSortStream::Create(
      VectorStream::Scan(*rel), *order, /*tuples_per_page=*/2,
      /*workspace_pages=*/3, /*io=*/nullptr);
  TEMPUS_ASSERT_OK(sort.status());

  FaultSpec fault;
  fault.trigger_at = 2;  // Let the first run spill, fail the second.
  FaultInjector::Global().Arm("storage.sort_spill", fault);
  Status open = (*sort)->Open();
  EXPECT_FALSE(open.ok());
  EXPECT_EQ(open.code(), StatusCode::kInternal);
  EXPECT_EQ(FaultInjector::Global().FireCount("storage.sort_spill"), 1u);
}

TEST_F(ChaosQueryTest, SortMergeFaultFailsOpen) {
  WorkloadSpec spec;
  spec.count = 40;  // 7 runs of 6 tuples: needs real merge levels.
  spec.seed = 8;
  Result<TemporalRelation> rel = MakeWorkloadRelation("r", spec);
  TEMPUS_ASSERT_OK(rel.status());
  Result<SortSpec> order = kByValidFromAsc.ToSortSpec(rel->schema());
  TEMPUS_ASSERT_OK(order.status());
  Result<std::unique_ptr<ExternalSortStream>> sort = ExternalSortStream::Create(
      VectorStream::Scan(*rel), *order, /*tuples_per_page=*/2,
      /*workspace_pages=*/3, /*io=*/nullptr);
  TEMPUS_ASSERT_OK(sort.status());

  FaultSpec fault;
  FaultInjector::Global().Arm("storage.sort_merge", fault);
  Status open = (*sort)->Open();
  EXPECT_FALSE(open.ok());
  EXPECT_GE(FaultInjector::Global().FireCount("storage.sort_merge"), 1u);
}

TEST_F(ChaosQueryTest, CatalogRegisterFaultLeavesNoGhostRelation) {
  Engine engine;
  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  FaultInjector::Global().Arm("catalog.register", spec);
  Status reg =
      engine.mutable_catalog()->Register(MakeIntervals("R", {{0, 5}}));
  EXPECT_FALSE(reg.ok());
  EXPECT_FALSE(engine.catalog().Contains("R"));

  // Once clear, the same registration succeeds.
  FaultInjector::Global().Reset();
  TEMPUS_EXPECT_OK(
      engine.mutable_catalog()->Register(MakeIntervals("R", {{0, 5}})));
  EXPECT_TRUE(engine.catalog().Contains("R"));
}

TEST_F(ChaosQueryTest, CatalogDropFaultKeepsTheRelation) {
  Engine engine;
  TEMPUS_ASSERT_OK(
      engine.mutable_catalog()->Register(MakeIntervals("R", {{0, 5}})));
  FaultSpec spec;
  FaultInjector::Global().Arm("catalog.drop", spec);
  EXPECT_FALSE(engine.DropRelation("R").ok());
  EXPECT_TRUE(engine.catalog().Contains("R"));
  FaultInjector::Global().Reset();
  TEMPUS_EXPECT_OK(engine.DropRelation("R"));
  EXPECT_FALSE(engine.catalog().Contains("R"));
}

TEST_F(ChaosQueryTest, EngineRunQueryCarriesInjectedFailureInStatus) {
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(MakeIntervals(
      "R", {{0, 10}, {2, 5}, {3, 4}, {6, 9}, {7, 8}, {11, 12}})));
  const std::string tql =
      "range of a is R range of b is R retrieve (a.S) where a during b";

  // Un-faulted baseline.
  Result<QueryRun> clean = engine.RunQuery(tql);
  TEMPUS_ASSERT_OK(clean.status());
  TEMPUS_ASSERT_OK(clean->status);
  ASSERT_GT(clean->result.size(), 0u);

  FaultSpec spec;
  spec.trigger_at = 8;
  spec.code = StatusCode::kUnavailable;
  spec.message = "disk gone";
  FaultInjector::Global().Arm("stream.next", spec);

  Result<QueryRun> run = engine.RunQuery(tql);
  // Parse/plan were fine; the *execution* failed, and says so.
  TEMPUS_ASSERT_OK(run.status());
  EXPECT_FALSE(run->status.ok());
  EXPECT_EQ(run->status.code(), StatusCode::kUnavailable);
  // Metrics of the abandoned plan remain observable and ledger-consistent.
  EXPECT_EQ(run->metrics.workspace_inserted,
            run->metrics.gc_discarded + run->metrics.workspace_tuples);

  // The engine survives: the same query runs clean after the fault clears.
  FaultInjector::Global().Reset();
  Result<QueryRun> retry = engine.RunQuery(tql);
  TEMPUS_ASSERT_OK(retry.status());
  TEMPUS_ASSERT_OK(retry->status);
  testing::ExpectSameTuples(retry->result, clean->result);
}

TEST_F(ChaosQueryTest, AnalyzeFaultFailsCleanlyAndRetries) {
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(MakeIntervals(
      "R", {{0, 10}, {2, 5}, {3, 4}, {6, 9}, {7, 8}, {11, 12}})));

  FaultSpec spec;
  spec.code = StatusCode::kUnavailable;
  spec.message = "stats scan died";
  FaultInjector::Global().Arm("stats.build", spec);

  // The analyze statement fails with the injected status and leaves no
  // partial statistics behind.
  const Result<TemporalRelation> failed = engine.Run("analyze R");
  ASSERT_FALSE(failed.ok());
  EXPECT_EQ(failed.status().code(), StatusCode::kUnavailable);
  EXPECT_EQ(engine.stats().Lookup("R"), nullptr);
  EXPECT_EQ(engine.stats().CheckFreshness("R", 6),
            StatsCatalog::Freshness::kMissing);

  // Queries still plan and run from coarse statistics meanwhile.
  const Result<TemporalRelation> query = engine.Run(
      "range of a is R range of b is R retrieve (a.S) where a during b");
  TEMPUS_ASSERT_OK(query.status());

  // After the fault clears, the retry succeeds and stats turn fresh.
  FaultInjector::Global().Reset();
  TEMPUS_ASSERT_OK(engine.Run("analyze R").status());
  ASSERT_NE(engine.stats().Lookup("R"), nullptr);
  EXPECT_TRUE(engine.stats().Lookup("R")->detailed);
  EXPECT_EQ(engine.stats().CheckFreshness("R", 6),
            StatsCatalog::Freshness::kFresh);
}

TEST_F(ChaosQueryTest, EveryPipelineFaultPointIsReachable) {
  // Arm a sentinel that never fires: hit accounting turns on for every
  // point the drivers below reach, proving the registry is live code, not
  // dead macros. (The two server.* points are covered by the server chaos
  // suite; everything else must appear here.)
  FaultSpec sentinel;
  sentinel.trigger_at = 1000000000;
  FaultInjector::Global().Arm("sentinel.coverage", sentinel);

  // stream.open / stream.next / catalog.register / catalog.drop via the
  // engine facade.
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(
      MakeIntervals("R", {{0, 10}, {2, 5}, {6, 9}})));
  Result<TemporalRelation> out = engine.Run(
      "range of a is R range of b is R retrieve (a.S) where a during b");
  TEMPUS_ASSERT_OK(out.status());
  // stats.build via the analyze statement.
  TEMPUS_ASSERT_OK(engine.Run("analyze R").status());
  TEMPUS_ASSERT_OK(engine.DropRelation("R"));

  // storage.page_read via a paged scan.
  const TemporalRelation rel = MakeIntervals("p", {{0, 1}, {1, 2}, {2, 3}});
  Result<PagedRelation> paged = PagedRelation::FromRelation(rel, 2);
  TEMPUS_ASSERT_OK(paged.status());
  PageIoCounter io;
  PagedScanStream scan(&*paged, &io);
  TEMPUS_ASSERT_OK(scan.Open());
  Result<size_t> drained = DrainCount(&scan);
  TEMPUS_ASSERT_OK(drained.status());

  // buffer.page_write / buffer.page_read / buffer.evict via a spill
  // scanned back through a pool too small to hold it.
  BufferManager pool(2);
  WorkloadSpec pool_spec;
  pool_spec.count = 48;  // 6 pages against 2 frames: eviction guaranteed.
  pool_spec.seed = 10;
  Result<TemporalRelation> d = MakeWorkloadRelation("d", pool_spec);
  TEMPUS_ASSERT_OK(d.status());
  Result<PagedRelation> spilled = PagedRelation::SpillToDisk(*d, 8, &pool);
  TEMPUS_ASSERT_OK(spilled.status());
  PagedScanStream disk_scan(&*spilled, nullptr);
  Result<size_t> disk_drained = DrainCount(&disk_scan);
  TEMPUS_ASSERT_OK(disk_drained.status());
  EXPECT_EQ(*disk_drained, d->size());

  // storage.sort_spill / storage.sort_merge via an external sort big
  // enough to need multiple runs and a merge level.
  WorkloadSpec spec;
  spec.count = 40;
  spec.seed = 9;
  Result<TemporalRelation> big = MakeWorkloadRelation("s", spec);
  TEMPUS_ASSERT_OK(big.status());
  Result<SortSpec> order = kByValidFromAsc.ToSortSpec(big->schema());
  TEMPUS_ASSERT_OK(order.status());
  Result<std::unique_ptr<ExternalSortStream>> sort = ExternalSortStream::Create(
      VectorStream::Scan(*big), *order, 2, 3, nullptr);
  TEMPUS_ASSERT_OK(sort.status());
  TEMPUS_ASSERT_OK((*sort)->Open());

  const std::vector<std::string> seen = FaultInjector::Global().SeenPoints();
  const std::set<std::string> seen_set(seen.begin(), seen.end());
  for (const char* point :
       {"stream.open", "stream.next", "storage.page_read",
        "storage.sort_spill", "storage.sort_merge", "catalog.register",
        "catalog.drop", "buffer.page_write", "buffer.page_read",
        "buffer.evict", "stats.build"}) {
    EXPECT_TRUE(seen_set.count(point)) << "never reached: " << point;
  }
}

}  // namespace
}  // namespace tempus

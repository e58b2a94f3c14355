// Property tests for the batch-sweep workspace structures (docs/BATCH.md):
// GaplessWorkspace and LazyDeletionQueue are exercised with randomized
// operation sequences against straightforward node-based references, then
// the structures are driven end-to-end through the batch containment
// semijoins on the adversarial meets-chain behind the dead-on-arrival GC
// rule — they must hold the Table 1 bound.

#include "join/batch_workspace.h"

#include <algorithm>
#include <deque>
#include <limits>
#include <random>
#include <utility>
#include <vector>

#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "join/containment_semijoin.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::ExpectSameTuples;
using ::tempus::testing::MakeIntervals;
using ::tempus::testing::ReferenceMaskSemijoin;
using ::tempus::testing::SortedByOrder;

constexpr TimePoint kMaxTime = std::numeric_limits<TimePoint>::max();

struct RefEntry {
  TimePoint start;
  TimePoint end;
  int64_t payload;
};

/// The reference is the plain structure: a vector compacted in place,
/// preserving insertion order.
class ReferenceWorkspace {
 public:
  void Insert(TimePoint start, TimePoint end, int64_t payload) {
    entries_.push_back({start, end, payload});
  }
  template <typename Dead>
  size_t EraseDead(Dead&& dead) {
    const size_t before = entries_.size();
    entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                  [&](const RefEntry& e) {
                                    return dead(e.start, e.end);
                                  }),
                   entries_.end());
    return before - entries_.size();
  }
  TimePoint MinStart() const {
    TimePoint m = kMaxTime;
    for (const RefEntry& e : entries_) m = std::min(m, e.start);
    return m;
  }
  TimePoint MinEnd() const {
    TimePoint m = kMaxTime;
    for (const RefEntry& e : entries_) m = std::min(m, e.end);
    return m;
  }
  const std::vector<RefEntry>& entries() const { return entries_; }

 private:
  std::vector<RefEntry> entries_;
};

void ExpectSameState(const GaplessWorkspace& ws,
                     const ReferenceWorkspace& ref) {
  ASSERT_EQ(ws.size(), ref.entries().size());
  for (size_t i = 0; i < ws.size(); ++i) {
    // Insertion order of survivors is part of the contract: probe emission
    // order follows it.
    EXPECT_EQ(ws.start(i), ref.entries()[i].start) << "entry " << i;
    EXPECT_EQ(ws.end(i), ref.entries()[i].end) << "entry " << i;
    ASSERT_EQ(ws.tuple(i).size(), 1u);
    EXPECT_EQ(ws.tuple(i)[0].int_value(), ref.entries()[i].payload);
  }
  EXPECT_EQ(ws.min_start(), ref.MinStart());
  EXPECT_EQ(ws.min_end(), ref.MinEnd());
}

TEST(GaplessWorkspaceTest, EmptyStateSentinels) {
  GaplessWorkspace ws;
  EXPECT_TRUE(ws.empty());
  EXPECT_EQ(ws.size(), 0u);
  EXPECT_EQ(ws.min_start(), kMaxTime);
  EXPECT_EQ(ws.min_end(), kMaxTime);
  EXPECT_EQ(ws.EraseDead([](TimePoint, TimePoint) { return true; }), 0u);
}

TEST(GaplessWorkspaceTest, RandomizedAgainstReference) {
  std::mt19937_64 rng(20260808);
  for (int round = 0; round < 20; ++round) {
    // Declared before the workspace so InsertStable pointers into it
    // outlive the entries that borrow them.
    std::deque<Tuple> stable_pool;
    GaplessWorkspace ws;
    ReferenceWorkspace ref;
    int64_t next_payload = 0;
    for (int step = 0; step < 400; ++step) {
      const uint64_t roll = rng() % 100;
      if (roll < 60) {
        const TimePoint start = static_cast<TimePoint>(rng() % 200);
        const TimePoint end = start + 1 + static_cast<TimePoint>(rng() % 50);
        const int64_t payload = next_payload++;
        // Rotate the three retention modes (move into slot, copy into
        // slot, borrow stable storage); the reference doesn't care how
        // the workspace stores payloads.
        const uint64_t mode = rng() % 3;
        if (mode == 0) {
          ws.Insert(Tuple({Value::Int(payload)}), Interval(start, end));
        } else if (mode == 1) {
          const Tuple src({Value::Int(payload)});
          ws.InsertOwnedCopy(src, Interval(start, end));
        } else {
          stable_pool.push_back(Tuple({Value::Int(payload)}));
          ws.InsertStable(&stable_pool.back(), Interval(start, end));
        }
        ref.Insert(start, end, payload);
      } else if (roll < 90) {
        // The operators' GC predicates are all end/start-vs-bound tests;
        // alternate between the two shapes.
        const TimePoint bound = static_cast<TimePoint>(rng() % 260);
        size_t erased_ws;
        size_t erased_ref;
        if (roll % 2 == 0) {
          auto dead = [bound](TimePoint, TimePoint end) {
            return end <= bound;
          };
          erased_ws = ws.EraseDead(dead);
          erased_ref = ref.EraseDead(dead);
        } else {
          auto dead = [bound](TimePoint start, TimePoint) {
            return start <= bound;
          };
          erased_ws = ws.EraseDead(dead);
          erased_ref = ref.EraseDead(dead);
        }
        EXPECT_EQ(erased_ws, erased_ref);
      } else if (roll < 95) {
        // Mixed-predicate sweep exercising both columns at once.
        const TimePoint bound = static_cast<TimePoint>(rng() % 260);
        auto dead = [bound](TimePoint start, TimePoint end) {
          return end - start < 10 && end <= bound;
        };
        EXPECT_EQ(ws.EraseDead(dead), ref.EraseDead(dead));
      } else {
        ws.Clear();
        ref = ReferenceWorkspace();
      }
      ExpectSameState(ws, ref);
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at round " << round << " step " << step;
      }
    }
  }
}

TEST(GaplessWorkspaceTest, EndpointColumnsAreContiguous) {
  GaplessWorkspace ws;
  for (int i = 0; i < 8; ++i) {
    ws.Insert(Tuple({Value::Int(i)}), Interval(i, i + 10));
  }
  const TimePoint* starts = ws.starts_data();
  const TimePoint* ends = ws.ends_data();
  for (size_t i = 0; i < ws.size(); ++i) {
    EXPECT_EQ(starts[i], ws.start(i));
    EXPECT_EQ(ends[i], ws.end(i));
  }
}

struct RefQueueEntry {
  TimePoint start;
  TimePoint end;
  bool matched;
  int64_t payload;
};

TEST(LazyDeletionQueueTest, RandomizedAgainstDequeReference) {
  std::mt19937_64 rng(477001);
  for (int round = 0; round < 20; ++round) {
    std::deque<Tuple> stable_pool;
    LazyDeletionQueue queue;
    std::deque<RefQueueEntry> ref;
    int64_t next_payload = 0;
    for (int step = 0; step < 600; ++step) {
      const uint64_t roll = rng() % 100;
      if (roll < 50) {
        const TimePoint start = static_cast<TimePoint>(rng() % 200);
        const TimePoint end = start + 1 + static_cast<TimePoint>(rng() % 50);
        const bool matched = rng() % 4 == 0;
        const int64_t payload = next_payload++;
        // Rotate the three enqueue modes; PushBackCopy's source dies
        // immediately, so the copy must persist independently.
        const uint64_t mode = rng() % 3;
        if (mode == 0) {
          queue.PushBack(Tuple({Value::Int(payload)}), Interval(start, end),
                         matched);
        } else if (mode == 1) {
          const Tuple src({Value::Int(payload)});
          queue.PushBackCopy(src, Interval(start, end), matched);
        } else {
          stable_pool.push_back(Tuple({Value::Int(payload)}));
          queue.PushBackStable(&stable_pool.back(), Interval(start, end),
                               matched);
          EXPECT_TRUE(queue.stable_at(queue.size() - 1));
        }
        ref.push_back({start, end, matched, payload});
      } else if (roll < 80 && !ref.empty()) {
        // Emission path: read the head tuple, then pop. This is the
        // pattern that triggers the amortized compaction once the dead
        // prefix dominates (and, for owned entries, recycles the slot).
        if (roll % 2 == 0) {
          ASSERT_EQ(queue.tuple_at(0)[0].int_value(), ref.front().payload);
        }
        queue.PopFront();
        ref.pop_front();
      } else if (!ref.empty()) {
        const size_t i = rng() % ref.size();
        queue.set_matched(i);
        ref[i].matched = true;
      }
      ASSERT_EQ(queue.size(), ref.size());
      ASSERT_EQ(queue.empty(), ref.empty());
      for (size_t i = 0; i < ref.size(); ++i) {
        EXPECT_EQ(queue.start_at(i), ref[i].start) << "entry " << i;
        EXPECT_EQ(queue.end_at(i), ref[i].end) << "entry " << i;
        EXPECT_EQ(queue.matched_at(i), ref[i].matched) << "entry " << i;
        EXPECT_EQ(queue.tuple_at(i)[0].int_value(), ref[i].payload)
            << "entry " << i;
      }
      if (::testing::Test::HasFailure()) {
        FAIL() << "diverged at round " << round << " step " << step;
      }
    }
  }
}

TEST(LazyDeletionQueueTest, CompactionPreservesWindowPastThreshold) {
  // Push far past the compaction threshold (head_ >= 32) while keeping a
  // live tail; every compaction must be invisible to the index API.
  LazyDeletionQueue queue;
  for (int i = 0; i < 200; ++i) {
    queue.PushBack(Tuple({Value::Int(i)}), Interval(i, i + 1), i % 2 == 0);
  }
  for (int popped = 0; popped < 150; ++popped) {
    ASSERT_EQ(queue.tuple_at(0)[0].int_value(), popped);
    queue.PopFront();
    ASSERT_EQ(queue.size(), 200u - popped - 1);
    // Spot-check a live middle entry after each pop.
    const size_t mid = queue.size() / 2;
    const int64_t expect = popped + 1 + static_cast<int64_t>(mid);
    EXPECT_EQ(queue.tuple_at(mid)[0].int_value(), expect);
    EXPECT_EQ(queue.start_at(mid), expect);
    EXPECT_EQ(queue.matched_at(mid), expect % 2 == 0);
  }
}

/// The dead-on-arrival regression, replayed through the batch sweep
/// containment semijoins: on a meets chain every container
/// dies on arrival, so the workspace must hold the Table 1 bound
/// mc_x + mc_y + 2 = 4 instead of growing with the input.
TEST(BatchWorkspaceBoundTest, SweepDiscardsDeadOnArrivalContainers) {
  std::vector<std::pair<TimePoint, TimePoint>> chain;
  for (TimePoint t = 0; t < 40; t += 2) chain.push_back({t, t + 2});
  const TemporalRelation x = MakeIntervals("X", chain);

  {
    const TemporalRelation xs = SortedByOrder(x, kByValidToDesc);
    TemporalSemijoinOptions options;
    options.left_order = kByValidToDesc;
    options.right_order = kByValidToDesc;
    options.batch_size = 5;
    Result<std::unique_ptr<TupleStream>> semi = MakeContainedSemijoin(
        VectorStream::Scan(xs), VectorStream::Scan(xs), options);
    ASSERT_TRUE(semi.ok()) << semi.status().ToString();
    Result<TemporalRelation> out =
        MaterializeBatches(semi->get(), "out", options.batch_size);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectSameTuples(*out, ReferenceMaskSemijoin(
                               xs, xs,
                               AllenMask::Single(AllenRelation::kDuring)));
    EXPECT_LE((*semi)->metrics().peak_workspace_tuples, 4u);
  }
  {
    const TemporalRelation xs = SortedByOrder(x, kByValidFromAsc);
    TemporalSemijoinOptions options;
    options.left_order = kByValidFromAsc;
    options.right_order = kByValidFromAsc;
    options.batch_size = 5;
    Result<std::unique_ptr<TupleStream>> semi = MakeContainSemijoin(
        VectorStream::Scan(xs), VectorStream::Scan(xs), options);
    ASSERT_TRUE(semi.ok()) << semi.status().ToString();
    Result<TemporalRelation> out =
        MaterializeBatches(semi->get(), "out", options.batch_size);
    ASSERT_TRUE(out.ok()) << out.status().ToString();
    ExpectSameTuples(*out, ReferenceMaskSemijoin(
                               xs, xs,
                               AllenMask::Single(AllenRelation::kContains)));
    EXPECT_LE((*semi)->metrics().peak_workspace_tuples, 4u);
  }
}

/// The ledger identity must hold for the batch structures exactly as for
/// the node-based ones: inserted == discarded + live, measured over a
/// random workload large enough to trigger real GC.
TEST(BatchWorkspaceBoundTest, LedgerBalancesOnRandomWorkload) {
  IntervalWorkloadConfig config;
  config.count = 300;
  config.seed = 77;
  config.mean_duration = 12.0;
  Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
  config.seed = 78;
  config.mean_duration = 4.0;
  Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
  ASSERT_TRUE(x.ok() && y.ok());
  const TemporalRelation xs = SortedByOrder(*x, kByValidFromAsc);
  const TemporalRelation ys = SortedByOrder(*y, kByValidFromAsc);

  TemporalSemijoinOptions options;
  options.left_order = kByValidFromAsc;
  options.right_order = kByValidFromAsc;
  options.batch_size = 7;
  Result<std::unique_ptr<TupleStream>> semi = MakeContainSemijoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  Result<TemporalRelation> out =
      MaterializeBatches(semi->get(), "out", options.batch_size);
  ASSERT_TRUE(out.ok()) << out.status().ToString();

  const OperatorMetrics m = CollectPlanMetrics(**semi);
  EXPECT_GT(m.workspace_inserted, 0u);
  EXPECT_GT(m.gc_discarded, 0u);
  EXPECT_EQ(m.workspace_inserted, m.gc_discarded + m.workspace_tuples);
}

}  // namespace
}  // namespace tempus

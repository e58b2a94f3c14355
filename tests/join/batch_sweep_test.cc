// The batch sweep operators at every batch size vs. the same operator at
// batch 1 drained row by row through the BatchOperator row adapter
// (docs/BATCH.md). Batching only moves where production suspends, so the
// operators promise the SAME output sequence — not just the same set —
// and every comparison here is exact, including the degenerate relation
// sizes around the batch boundary (0, 1, B-1, B, B+1).

#include "join/batch_sweep.h"

#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "gtest/gtest.h"
#include "join/containment_semijoin.h"
#include "join/self_semijoin.h"
#include "stream/basic_ops.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::ExpectSameTuples;
using ::tempus::testing::MakeIntervals;
using ::tempus::testing::SortedByOrder;

using OpBuilder = std::function<Result<std::unique_ptr<TupleStream>>(
    std::unique_ptr<TupleStream>, std::unique_ptr<TupleStream>, size_t)>;

struct OpSpec {
  std::string name;
  TemporalSortOrder left_order;
  TemporalSortOrder right_order;
  bool self;  // Uses only the left operand.
  OpBuilder build;
};

/// Every sweep operator in every supported configuration family.
std::vector<OpSpec> ConvertedOps() {
  std::vector<OpSpec> ops;
  auto contain_join = [](TemporalSortOrder lo, TemporalSortOrder ro) {
    return [lo, ro](std::unique_ptr<TupleStream> x,
                    std::unique_ptr<TupleStream> y, size_t batch) {
      ContainJoinOptions options;
      options.left_order = lo;
      options.right_order = ro;
      options.batch_size = batch;
      return MakeContainJoin(std::move(x), std::move(y), options);
    };
  };
  ops.push_back({"contain-join(FA,FA)", kByValidFromAsc, kByValidFromAsc,
                 false, contain_join(kByValidFromAsc, kByValidFromAsc)});
  ops.push_back({"contain-join(FA,TA)", kByValidFromAsc, kByValidToAsc,
                 false, contain_join(kByValidFromAsc, kByValidToAsc)});
  ops.push_back({"contain-join(TD,TD)", kByValidToDesc, kByValidToDesc,
                 false, contain_join(kByValidToDesc, kByValidToDesc)});
  ops.push_back({"contain-join(TD,FD)", kByValidToDesc, kByValidFromDesc,
                 false, contain_join(kByValidToDesc, kByValidFromDesc)});

  auto allen_sweep = [](TemporalSortOrder order) {
    return [order](std::unique_ptr<TupleStream> x,
                   std::unique_ptr<TupleStream> y, size_t batch) {
      AllenSweepJoinOptions options;
      options.mask = AllenMask::Intersecting();
      options.left_order = order;
      options.right_order = order;
      options.batch_size = batch;
      return MakeAllenSweepJoin(std::move(x), std::move(y), options);
    };
  };
  ops.push_back({"allen-sweep(FA)", kByValidFromAsc, kByValidFromAsc, false,
                 allen_sweep(kByValidFromAsc)});
  ops.push_back({"allen-sweep(TD)", kByValidToDesc, kByValidToDesc, false,
                 allen_sweep(kByValidToDesc)});

  auto overlap_semi = [](TemporalSortOrder order) {
    return [order](std::unique_ptr<TupleStream> x,
                   std::unique_ptr<TupleStream> y, size_t batch) {
      OverlapSemijoinOptions options;
      options.order = order;
      options.batch_size = batch;
      return MakeOverlapSemijoin(std::move(x), std::move(y), options);
    };
  };
  ops.push_back({"overlap-semijoin(FA)", kByValidFromAsc, kByValidFromAsc,
                 false, overlap_semi(kByValidFromAsc)});
  ops.push_back({"overlap-semijoin(TD)", kByValidToDesc, kByValidToDesc,
                 false, overlap_semi(kByValidToDesc)});

  auto containment = [](bool contain, TemporalSortOrder lo,
                        TemporalSortOrder ro) {
    return [contain, lo, ro](std::unique_ptr<TupleStream> x,
                             std::unique_ptr<TupleStream> y, size_t batch) {
      TemporalSemijoinOptions options;
      options.left_order = lo;
      options.right_order = ro;
      options.batch_size = batch;
      return contain
                 ? MakeContainSemijoin(std::move(x), std::move(y), options)
                 : MakeContainedSemijoin(std::move(x), std::move(y), options);
    };
  };
  ops.push_back({"contain-semijoin two-buffer", kByValidFromAsc,
                 kByValidToAsc, false,
                 containment(true, kByValidFromAsc, kByValidToAsc)});
  ops.push_back({"contain-semijoin sweep", kByValidFromAsc, kByValidFromAsc,
                 false, containment(true, kByValidFromAsc, kByValidFromAsc)});
  ops.push_back({"contained-semijoin two-buffer", kByValidToAsc,
                 kByValidFromAsc, false,
                 containment(false, kByValidToAsc, kByValidFromAsc)});
  ops.push_back({"contained-semijoin sweep", kByValidFromAsc,
                 kByValidFromAsc, false,
                 containment(false, kByValidFromAsc, kByValidFromAsc)});
  ops.push_back({"contained-semijoin sweep mirror", kByValidToDesc,
                 kByValidToDesc, false,
                 containment(false, kByValidToDesc, kByValidToDesc)});

  auto self_op = [](bool contained, TemporalSortOrder order) {
    return [contained, order](std::unique_ptr<TupleStream> x,
                              std::unique_ptr<TupleStream>, size_t batch) {
      SelfSemijoinOptions options;
      options.order = order;
      options.batch_size = batch;
      return contained ? MakeSelfContainedSemijoin(std::move(x), options)
                       : MakeSelfContainSemijoin(std::move(x), options);
    };
  };
  ops.push_back({"self-contained(FA)", kByValidFromAsc, kByValidFromAsc,
                 true, self_op(true, kByValidFromAsc)});
  ops.push_back({"self-contain(FD)", kByValidFromDesc, kByValidFromDesc,
                 true, self_op(false, kByValidFromDesc)});
  ops.push_back({"self-contain(FA)", kByValidFromAsc, kByValidFromAsc, true,
                 self_op(false, kByValidFromAsc)});
  return ops;
}

TemporalRelation MakeRandomRel(const std::string& name, size_t count,
                               uint64_t seed) {
  std::mt19937_64 rng(seed);
  std::vector<std::pair<TimePoint, TimePoint>> spans;
  spans.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    const TimePoint start = static_cast<TimePoint>(rng() % 100);
    spans.push_back({start, start + 1 + static_cast<TimePoint>(rng() % 30)});
  }
  return MakeIntervals(name, spans);
}

/// Exact sequence equality: same rows in the same emission order.
void ExpectExactSequence(const TemporalRelation& actual,
                         const TemporalRelation& expected) {
  ASSERT_EQ(actual.size(), expected.size())
      << "actual:\n"
      << actual.ToString(20) << "expected:\n"
      << expected.ToString(20);
  for (size_t i = 0; i < actual.size(); ++i) {
    EXPECT_TRUE(actual.tuple(i) == expected.tuple(i))
        << "row " << i << ": " << actual.tuple(i).ToString() << " vs "
        << expected.tuple(i).ToString();
  }
}

/// Runs `spec` over (x, y) at `batch_size` (drained through NextBatch) and
/// at batch size 1 (drained row by row through the row adapter); the two
/// results must agree row for row, with the same peak state.
void CheckAgainstRowDrain(const OpSpec& spec, const TemporalRelation& x,
                          const TemporalRelation& y, size_t batch_size) {
  SCOPED_TRACE(spec.name + " batch=" + std::to_string(batch_size) + " |x|=" +
               std::to_string(x.size()) + " |y|=" + std::to_string(y.size()));
  const TemporalRelation xs = SortedByOrder(x, spec.left_order);
  const TemporalRelation ys = SortedByOrder(y, spec.right_order);

  Result<std::unique_ptr<TupleStream>> row_op = spec.build(
      VectorStream::Scan(xs), VectorStream::Scan(ys), /*batch=*/1);
  ASSERT_TRUE(row_op.ok()) << row_op.status().ToString();
  Result<TemporalRelation> expected = Materialize(row_op->get(), "rows");
  ASSERT_TRUE(expected.ok()) << expected.status().ToString();

  Result<std::unique_ptr<TupleStream>> batch_op =
      spec.build(VectorStream::Scan(xs), VectorStream::Scan(ys), batch_size);
  ASSERT_TRUE(batch_op.ok()) << batch_op.status().ToString();
  Result<TemporalRelation> actual =
      MaterializeBatches(batch_op->get(), "batch", batch_size);
  ASSERT_TRUE(actual.ok()) << actual.status().ToString();

  ExpectExactSequence(*actual, *expected);

  // The ledger identity holds on both sides.
  const OperatorMetrics row_m = CollectPlanMetrics(**row_op);
  const OperatorMetrics batch_m = CollectPlanMetrics(**batch_op);
  EXPECT_EQ(row_m.workspace_inserted,
            row_m.gc_discarded + row_m.workspace_tuples);
  EXPECT_EQ(batch_m.workspace_inserted,
            batch_m.gc_discarded + batch_m.workspace_tuples);
  // State-content preservation: the sweep state does not depend on the
  // batch size.
  EXPECT_EQ(batch_m.peak_workspace_tuples, row_m.peak_workspace_tuples);
}

TEST(BatchSweepTest, EdgeSizesAroundTheBatchBoundary) {
  // B = 4: relation sizes 0, 1, B-1, B, B+1 in every pairing, through
  // every converted operator.
  constexpr size_t kBatch = 4;
  const std::vector<size_t> sizes = {0, 1, 3, 4, 5};
  uint64_t seed = 900;
  for (const OpSpec& spec : ConvertedOps()) {
    for (size_t nx : sizes) {
      for (size_t ny : sizes) {
        if (spec.self && nx != ny) continue;  // Single operand.
        const TemporalRelation x = MakeRandomRel("x", nx, ++seed);
        const TemporalRelation y = MakeRandomRel("y", ny, ++seed);
        CheckAgainstRowDrain(spec, x, y, kBatch);
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

TEST(BatchSweepTest, BatchSizeOneIsTupleAtATimeExactly) {
  uint64_t seed = 7100;
  for (const OpSpec& spec : ConvertedOps()) {
    const TemporalRelation x = MakeRandomRel("x", 120, ++seed);
    const TemporalRelation y = spec.self ? x : MakeRandomRel("y", 120, ++seed);
    CheckAgainstRowDrain(spec, x, y, /*batch_size=*/1);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(BatchSweepTest, MidAndLargeBatchSizesMatchTuple) {
  uint64_t seed = 8300;
  for (const OpSpec& spec : ConvertedOps()) {
    const TemporalRelation x = MakeRandomRel("x", 200, ++seed);
    const TemporalRelation y = spec.self ? x : MakeRandomRel("y", 200, ++seed);
    for (size_t batch : {size_t{3}, size_t{64}, size_t{1024}}) {
      CheckAgainstRowDrain(spec, x, y, batch);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(BatchSweepTest, OwnedInputRowsMatchStableInputs) {
  // A child whose rows die with its batch (here a closure filter, which
  // hands out owned rows) makes every operator copy what it retains or
  // emits instead of pointing at it; the output must not change.
  auto owned = [](const TemporalRelation& rel) {
    return std::make_unique<FilterStream>(
        VectorStream::Scan(rel), [](const Tuple&) -> Result<bool> {
          return true;
        });
  };
  uint64_t seed = 9400;
  for (const OpSpec& spec : ConvertedOps()) {
    SCOPED_TRACE(spec.name);
    const TemporalRelation x =
        SortedByOrder(MakeRandomRel("x", 150, ++seed), spec.left_order);
    const TemporalRelation y =
        spec.self ? x
                  : SortedByOrder(MakeRandomRel("y", 150, ++seed),
                                  spec.right_order);
    Result<std::unique_ptr<TupleStream>> stable_op =
        spec.build(VectorStream::Scan(x), VectorStream::Scan(y), 7);
    ASSERT_TRUE(stable_op.ok()) << stable_op.status().ToString();
    Result<TemporalRelation> expected =
        MaterializeBatches(stable_op->get(), "stable", 7);
    ASSERT_TRUE(expected.ok()) << expected.status().ToString();
    Result<std::unique_ptr<TupleStream>> owned_op =
        spec.build(owned(x), owned(y), 7);
    ASSERT_TRUE(owned_op.ok()) << owned_op.status().ToString();
    Result<TemporalRelation> actual =
        MaterializeBatches(owned_op->get(), "owned", 7);
    ASSERT_TRUE(actual.ok()) << actual.status().ToString();
    ExpectExactSequence(*actual, *expected);
  }
}

TEST(BatchSweepTest, RejectsInappropriateOrderingsLikeTuplePath) {
  // The factories refuse the orderings that admit no garbage-collection
  // criterion (the "-" cells of Tables 1-2) at every batch size.
  const TemporalRelation x = MakeIntervals("X", {{0, 10}});
  ContainJoinOptions options;
  options.left_order = kByValidToAsc;
  options.right_order = kByValidToAsc;
  options.batch_size = 8;
  Result<std::unique_ptr<TupleStream>> bad = MakeContainJoin(
      VectorStream::Scan(x), VectorStream::Scan(x), options);
  EXPECT_FALSE(bad.ok());

  AllenSweepJoinOptions allen;
  allen.mask = AllenMask::Single(AllenRelation::kBefore);
  allen.batch_size = 8;
  EXPECT_FALSE(MakeAllenSweepJoin(VectorStream::Scan(x),
                                  VectorStream::Scan(x), allen)
                   .ok());
}

TEST(BatchSweepTest, OrderViolationFailsTheBatchRun) {
  // Input promising from-asc but delivered shuffled: the reader-side
  // validator must fail the drain.
  const TemporalRelation bad =
      MakeIntervals("X", {{5, 9}, {0, 10}, {2, 4}});
  ContainJoinOptions options;
  options.batch_size = 2;
  Result<std::unique_ptr<TupleStream>> join = MakeContainJoin(
      VectorStream::Scan(bad), VectorStream::Scan(bad), options);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  Result<TemporalRelation> out = MaterializeBatches(join->get(), "out", 2);
  EXPECT_FALSE(out.ok());
}

}  // namespace
}  // namespace tempus

// Randomized cross-operator property suite: every stream operator must
// produce exactly the nested-loop reference result over a sweep of
// workload shapes (arrival density x duration distribution x seed), and
// bounded-state operators must respect their Table 1/2/3 workspace bounds.

#include <memory>
#include <ostream>

#include "common/random.h"
#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "join/allen_sweep_join.h"
#include "join/before_join.h"
#include "join/contain_join.h"
#include "join/containment_semijoin.h"
#include "join/overlap_semijoin.h"
#include "join/self_semijoin.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::ExpectSameTuples;
using ::tempus::testing::MustMaterialize;
using ::tempus::testing::ReferenceMaskJoin;
using ::tempus::testing::ReferenceMaskSemijoin;
using ::tempus::testing::ReferenceSelfSemijoin;
using ::tempus::testing::SortedByOrder;

struct WorkloadShape {
  const char* name;
  double mean_interarrival;
  double mean_duration;
  DurationModel model;
  uint64_t seed;
};

// Without this gtest prints the raw bytes of the struct, `name` pointer
// included, so the listed test names (and the ctest names discovered from
// them) would change with every address-space layout.
void PrintTo(const WorkloadShape& w, std::ostream* os) { *os << w.name; }

class OperatorPropertyTest : public ::testing::TestWithParam<WorkloadShape> {
 protected:
  void SetUp() override {
    IntervalWorkloadConfig config;
    config.count = 220;
    config.seed = GetParam().seed;
    config.mean_interarrival = GetParam().mean_interarrival;
    config.mean_duration = GetParam().mean_duration;
    config.duration_model = GetParam().model;
    Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
    config.seed = GetParam().seed + 1000;
    Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
    ASSERT_TRUE(x.ok() && y.ok());
    x_ = std::move(x).value();
    y_ = std::move(y).value();
  }

  TemporalRelation x_;
  TemporalRelation y_;
};

TEST_P(OperatorPropertyTest, ContainJoinBothModes) {
  const AllenMask contains = AllenMask::Single(AllenRelation::kContains);
  for (const auto& [lo, ro] :
       std::vector<std::pair<TemporalSortOrder, TemporalSortOrder>>{
           {kByValidFromAsc, kByValidFromAsc},
           {kByValidFromAsc, kByValidToAsc}}) {
    const TemporalRelation xs = SortedByOrder(x_, lo);
    const TemporalRelation ys = SortedByOrder(y_, ro);
    ContainJoinOptions options;
    options.left_order = lo;
    options.right_order = ro;
    Result<std::unique_ptr<ContainJoinStream>> join =
        ContainJoinStream::Create(VectorStream::Scan(xs),
                                  VectorStream::Scan(ys), options);
    ASSERT_TRUE(join.ok());
    ExpectSameTuples(MustMaterialize(join->get(), "out"),
                     ReferenceMaskJoin(xs, ys, contains));
  }
}

TEST_P(OperatorPropertyTest, ContainmentSemijoins) {
  {
    const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
    const TemporalRelation ys = SortedByOrder(y_, kByValidToAsc);
    Result<std::unique_ptr<TupleStream>> semi =
        MakeContainSemijoin(VectorStream::Scan(xs), VectorStream::Scan(ys),
                            {kByValidFromAsc, kByValidToAsc, true, false});
    ASSERT_TRUE(semi.ok());
    ExpectSameTuples(
        MustMaterialize(semi->get(), "out"),
        ReferenceMaskSemijoin(xs, ys,
                              AllenMask::Single(AllenRelation::kContains)));
  }
  {
    const TemporalRelation xs = SortedByOrder(x_, kByValidToAsc);
    const TemporalRelation ys = SortedByOrder(y_, kByValidFromAsc);
    Result<std::unique_ptr<TupleStream>> semi = MakeContainedSemijoin(
        VectorStream::Scan(xs), VectorStream::Scan(ys),
        {kByValidToAsc, kByValidFromAsc, true, false});
    ASSERT_TRUE(semi.ok());
    ExpectSameTuples(
        MustMaterialize(semi->get(), "out"),
        ReferenceMaskSemijoin(xs, ys,
                              AllenMask::Single(AllenRelation::kDuring)));
  }
}

TEST_P(OperatorPropertyTest, SweepJoinIntersectingWithBound) {
  const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
  const TemporalRelation ys = SortedByOrder(y_, kByValidFromAsc);
  AllenSweepJoinOptions options;
  options.mask = AllenMask::Intersecting();
  Result<std::unique_ptr<AllenSweepJoin>> join = AllenSweepJoin::Create(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  ASSERT_TRUE(join.ok());
  ExpectSameTuples(MustMaterialize(join->get(), "out"),
                   ReferenceMaskJoin(xs, ys, AllenMask::Intersecting()));
  Result<RelationStats> sx = x_.ComputeStats();
  Result<RelationStats> sy = y_.ComputeStats();
  ASSERT_TRUE(sx.ok() && sy.ok());
  EXPECT_LE((*join)->metrics().peak_workspace_tuples,
            sx->max_concurrency + sy->max_concurrency + 2);
}

TEST_P(OperatorPropertyTest, OverlapSemijoinBufferOnly) {
  const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
  const TemporalRelation ys = SortedByOrder(y_, kByValidFromAsc);
  Result<std::unique_ptr<OverlapSemijoin>> semi =
      OverlapSemijoin::Create(VectorStream::Scan(xs), VectorStream::Scan(ys));
  ASSERT_TRUE(semi.ok());
  ExpectSameTuples(
      MustMaterialize(semi->get(), "out"),
      ReferenceMaskSemijoin(xs, ys, AllenMask::Intersecting()));
  EXPECT_EQ((*semi)->metrics().peak_workspace_tuples, 0u);
}

TEST_P(OperatorPropertyTest, SelfSemijoinsSingleState) {
  {
    const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
    SelfSemijoinOptions options;
    options.order = kByValidFromAsc;
    Result<std::unique_ptr<TupleStream>> semi =
        MakeSelfContainedSemijoin(VectorStream::Scan(xs), options);
    ASSERT_TRUE(semi.ok());
    ExpectSameTuples(
        MustMaterialize(semi->get(), "out"),
        ReferenceSelfSemijoin(xs, AllenMask::Single(AllenRelation::kDuring)));
    EXPECT_LE((*semi)->metrics().peak_workspace_tuples, 1u);
  }
  {
    const TemporalRelation xs = SortedByOrder(x_, kByValidFromDesc);
    SelfSemijoinOptions options;
    options.order = kByValidFromDesc;
    Result<std::unique_ptr<TupleStream>> semi =
        MakeSelfContainSemijoin(VectorStream::Scan(xs), options);
    ASSERT_TRUE(semi.ok());
    ExpectSameTuples(MustMaterialize(semi->get(), "out"),
                     ReferenceSelfSemijoin(
                         xs, AllenMask::Single(AllenRelation::kContains)));
    EXPECT_LE((*semi)->metrics().peak_workspace_tuples, 1u);
  }
}

TEST_P(OperatorPropertyTest, RandomAllenMasksAgainstReference) {
  // Random subsets of the eleven coexisting relations: the generic sweep
  // join must agree with the nested-loop oracle for any disjunction.
  const TemporalRelation xs = SortedByOrder(x_, kByValidFromAsc);
  const TemporalRelation ys = SortedByOrder(y_, kByValidFromAsc);
  Rng rng(GetParam().seed * 977 + 5);
  for (int round = 0; round < 4; ++round) {
    AllenMask mask;
    for (AllenRelation rel : AllAllenRelations()) {
      if (rel == AllenRelation::kBefore || rel == AllenRelation::kAfter) {
        continue;
      }
      if (rng.Bernoulli(0.4)) mask.Add(rel);
    }
    if (mask.IsEmpty()) mask.Add(AllenRelation::kEqual);
    SCOPED_TRACE(mask.ToString());
    AllenSweepJoinOptions options;
    options.mask = mask;
    Result<std::unique_ptr<AllenSweepJoin>> join = AllenSweepJoin::Create(
        VectorStream::Scan(xs), VectorStream::Scan(ys), options);
    ASSERT_TRUE(join.ok());
    ExpectSameTuples(MustMaterialize(join->get(), "out"),
                     ReferenceMaskJoin(xs, ys, mask));
  }
}

TEST_P(OperatorPropertyTest, BeforeJoinAndSemijoin) {
  Result<std::unique_ptr<BeforeJoinStream>> join = BeforeJoinStream::Create(
      VectorStream::Scan(x_), VectorStream::Scan(y_));
  ASSERT_TRUE(join.ok());
  ExpectSameTuples(
      MustMaterialize(join->get(), "out"),
      ReferenceMaskJoin(x_, y_, AllenMask::Single(AllenRelation::kBefore)));
  Result<std::unique_ptr<BeforeSemijoin>> semi = BeforeSemijoin::Create(
      VectorStream::Scan(x_), VectorStream::Scan(y_));
  ASSERT_TRUE(semi.ok());
  ExpectSameTuples(MustMaterialize(semi->get(), "out"),
                   ReferenceMaskSemijoin(
                       x_, y_, AllenMask::Single(AllenRelation::kBefore)));
}

INSTANTIATE_TEST_SUITE_P(
    WorkloadShapes, OperatorPropertyTest,
    ::testing::Values(
        WorkloadShape{"sparse_short", 16.0, 4.0, DurationModel::kUniform, 1},
        WorkloadShape{"dense_short", 1.0, 4.0, DurationModel::kExponential,
                      2},
        WorkloadShape{"dense_long", 1.0, 64.0, DurationModel::kExponential,
                      3},
        WorkloadShape{"heavy_tail", 4.0, 16.0, DurationModel::kPareto, 4},
        WorkloadShape{"unit_durations", 2.0, 1.0, DurationModel::kUniform,
                      5},
        WorkloadShape{"bursty_ties", 0.0, 8.0, DurationModel::kExponential,
                      6}),
    [](const ::testing::TestParamInfo<WorkloadShape>& info) {
      return info.param.name;
    });

}  // namespace
}  // namespace tempus

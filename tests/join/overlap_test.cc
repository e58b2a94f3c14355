#include "join/overlap_semijoin.h"

#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "join/allen_sweep_join.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::ExpectSameTuples;
using ::tempus::testing::MakeIntervals;
using ::tempus::testing::MustMaterialize;
using ::tempus::testing::ReferenceMaskJoin;
using ::tempus::testing::ReferenceMaskSemijoin;
using ::tempus::testing::SortedByOrder;

TEST(OverlapJoinTest, SuperstarStyleOverlap) {
  // TQuel overlap (Section 3): the two lifespans share a time point.
  const TemporalRelation x =
      MakeIntervals("X", {{0, 5}, {3, 9}, {10, 12}});
  const TemporalRelation y =
      MakeIntervals("Y", {{4, 6}, {5, 10}, {12, 13}});
  const TemporalRelation xs = SortedByOrder(x, kByValidFromAsc);
  const TemporalRelation ys = SortedByOrder(y, kByValidFromAsc);
  Result<std::unique_ptr<TupleStream>> join =
      MakeAllenSweepJoin(VectorStream::Scan(xs), VectorStream::Scan(ys));
  ASSERT_TRUE(join.ok());
  const TemporalRelation out = MustMaterialize(join->get(), "out");
  ExpectSameTuples(out,
                   ReferenceMaskJoin(xs, ys, AllenMask::Intersecting()));
  // [10,12) and [12,13) touch but do not overlap (half-open).
  for (size_t i = 0; i < out.size(); ++i) {
    const Interval a(out.tuple(i)[2].time_value(),
                     out.tuple(i)[3].time_value());
    const Interval b(out.tuple(i)[6].time_value(),
                     out.tuple(i)[7].time_value());
    EXPECT_TRUE(a.Intersects(b));
  }
}

void CheckOverlapSemijoin(const TemporalRelation& x,
                          const TemporalRelation& y, TemporalSortOrder order,
                          size_t* peak = nullptr) {
  const TemporalRelation xs = SortedByOrder(x, order);
  const TemporalRelation ys = SortedByOrder(y, order);
  OverlapSemijoinOptions options;
  options.order = order;
  Result<std::unique_ptr<TupleStream>> semi = MakeOverlapSemijoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  const TemporalRelation out = MustMaterialize(semi->get(), "out");
  ExpectSameTuples(out,
                   ReferenceMaskSemijoin(xs, ys, AllenMask::Intersecting()));
  if (peak != nullptr) *peak = (*semi)->metrics().peak_workspace_tuples;
}

TEST(OverlapSemijoinTest, BufferOnlyWorkspace) {
  IntervalWorkloadConfig config;
  config.count = 300;
  config.seed = 19;
  Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
  config.seed = 20;
  Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
  ASSERT_TRUE(x.ok() && y.ok());
  size_t peak = 99;
  CheckOverlapSemijoin(*x, *y, kByValidFromAsc, &peak);
  // Table 2 (b): local workspace = <Buffer-x, Buffer-y>.
  EXPECT_EQ(peak, 0u);
}

TEST(OverlapSemijoinTest, MirroredOrder) {
  IntervalWorkloadConfig config;
  config.count = 200;
  config.seed = 23;
  Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
  config.seed = 24;
  Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
  ASSERT_TRUE(x.ok() && y.ok());
  CheckOverlapSemijoin(*x, *y, kByValidToDesc);
}

TEST(OverlapSemijoinTest, TouchingEndpointsDoNotOverlap) {
  const TemporalRelation x = MakeIntervals("X", {{0, 5}, {5, 7}});
  const TemporalRelation y = MakeIntervals("Y", {{5, 6}});
  CheckOverlapSemijoin(x, y, kByValidFromAsc);
}

TEST(OverlapSemijoinTest, EmptyInputs) {
  const TemporalRelation x = MakeIntervals("X", {{0, 5}});
  const TemporalRelation empty = MakeIntervals("E", {});
  CheckOverlapSemijoin(x, empty, kByValidFromAsc);
  CheckOverlapSemijoin(empty, x, kByValidFromAsc);
}

TEST(OverlapSemijoinTest, SingletonInputs) {
  const TemporalRelation x = MakeIntervals("X", {{0, 5}});
  const TemporalRelation touching = MakeIntervals("Y", {{3, 9}});
  const TemporalRelation apart = MakeIntervals("Y", {{20, 30}});
  CheckOverlapSemijoin(x, touching, kByValidFromAsc);
  CheckOverlapSemijoin(x, apart, kByValidFromAsc);
  CheckOverlapSemijoin(x, x, kByValidToDesc);  // Reflexive: emits itself.
}

TEST(OverlapJoinTest, EmptyAndSingletonInputs) {
  const TemporalRelation x = MakeIntervals("X", {{0, 5}});
  const TemporalRelation touching = MakeIntervals("Y", {{3, 9}});
  const TemporalRelation apart = MakeIntervals("Y", {{20, 30}});
  const TemporalRelation empty = MakeIntervals("E", {});
  const std::pair<const TemporalRelation*, const TemporalRelation*> cases[] =
      {{&x, &touching}, {&x, &apart}, {&x, &empty},
       {&empty, &x},    {&empty, &empty}};
  for (const auto& [l, r] : cases) {
    Result<std::unique_ptr<TupleStream>> join =
        MakeAllenSweepJoin(VectorStream::Scan(*l), VectorStream::Scan(*r));
    ASSERT_TRUE(join.ok()) << join.status().ToString();
    ExpectSameTuples(MustMaterialize(join->get(), "out"),
                     ReferenceMaskJoin(*l, *r, AllenMask::Intersecting()));
  }
}

TEST(OverlapSemijoinTest, RejectsBadOrder) {
  const TemporalRelation x = MakeIntervals("X", {{0, 5}});
  OverlapSemijoinOptions options;
  options.order = kByValidToAsc;
  EXPECT_FALSE(MakeOverlapSemijoin(VectorStream::Scan(x),
                                   VectorStream::Scan(x), options)
                   .ok());
}

}  // namespace
}  // namespace tempus

#include "join/allen_sweep_join.h"

#include "common/random.h"
#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::ExpectSameTuples;
using ::tempus::testing::MakeIntervals;
using ::tempus::testing::MustMaterialize;
using ::tempus::testing::ReferenceMaskJoin;
using ::tempus::testing::SortedByOrder;

void CheckMask(const TemporalRelation& x, const TemporalRelation& y,
               AllenMask mask, TemporalSortOrder order = kByValidFromAsc,
               size_t* peak = nullptr) {
  const TemporalRelation xs = SortedByOrder(x, order);
  const TemporalRelation ys = SortedByOrder(y, order);
  AllenSweepJoinOptions options;
  options.mask = mask;
  options.left_order = order;
  options.right_order = order;
  Result<std::unique_ptr<TupleStream>> join = MakeAllenSweepJoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  const TemporalRelation out = MustMaterialize(join->get(), "out");
  ExpectSameTuples(out, ReferenceMaskJoin(xs, ys, mask));
  EXPECT_EQ((*join)->metrics().passes_left, 1u);
  EXPECT_EQ((*join)->metrics().passes_right, 1u);
  if (peak != nullptr) *peak = (*join)->metrics().peak_workspace_tuples;
}

TemporalRelation DenseRelation(uint64_t seed, double mean_duration) {
  IntervalWorkloadConfig config;
  config.count = 250;
  config.seed = seed;
  config.mean_interarrival = 3.0;
  config.mean_duration = mean_duration;
  Result<TemporalRelation> rel = GenerateIntervalRelation("R", config);
  EXPECT_TRUE(rel.ok());
  return std::move(rel).value();
}

TEST(AllenSweepJoinTest, EachCoexistingRelationMatchesReference) {
  // Endpoint collisions matter for the equality-flavored relations, so use
  // a small time domain with many ties.
  TemporalRelation x("X", Schema::Canonical("S", ValueType::kInt64, "V",
                                            ValueType::kInt64));
  TemporalRelation y("Y", x.schema());
  Rng rng(123);
  for (int i = 0; i < 120; ++i) {
    const TimePoint xs = rng.UniformInt(0, 20);
    const TimePoint ys = rng.UniformInt(0, 20);
    TEMPUS_ASSERT_OK(x.AppendRow(Value::Int(i), Value::Int(0), xs,
                                 xs + rng.UniformInt(1, 10)));
    TEMPUS_ASSERT_OK(y.AppendRow(Value::Int(i), Value::Int(0), ys,
                                 ys + rng.UniformInt(1, 10)));
  }
  for (AllenRelation rel : AllAllenRelations()) {
    if (rel == AllenRelation::kBefore || rel == AllenRelation::kAfter) {
      continue;
    }
    SCOPED_TRACE(std::string(AllenRelationName(rel)));
    CheckMask(x, y, AllenMask::Single(rel));
  }
}

TEST(AllenSweepJoinTest, MaskUnions) {
  const TemporalRelation x = DenseRelation(61, 12.0);
  const TemporalRelation y = DenseRelation(62, 12.0);
  CheckMask(x, y, AllenMask::Intersecting());
  CheckMask(x, y, AllenMask({AllenRelation::kDuring,
                             AllenRelation::kContains,
                             AllenRelation::kEqual}));
  CheckMask(x, y, AllenMask({AllenRelation::kMeets, AllenRelation::kMetBy}));
}

TEST(AllenSweepJoinTest, MirroredOrderAgrees) {
  const TemporalRelation x = DenseRelation(71, 9.0);
  const TemporalRelation y = DenseRelation(72, 9.0);
  CheckMask(x, y, AllenMask::Intersecting(), kByValidToDesc);
  CheckMask(x, y, AllenMask::Single(AllenRelation::kOverlaps),
            kByValidToDesc);
  CheckMask(x, y, AllenMask::Single(AllenRelation::kMeets), kByValidToDesc);
}

TEST(AllenSweepJoinTest, WorkspaceIsActiveSetBound) {
  const TemporalRelation x = DenseRelation(81, 20.0);
  const TemporalRelation y = DenseRelation(82, 20.0);
  size_t peak = 0;
  CheckMask(x, y, AllenMask::Intersecting(), kByValidFromAsc, &peak);
  Result<RelationStats> xs = x.ComputeStats();
  Result<RelationStats> ys = y.ComputeStats();
  ASSERT_TRUE(xs.ok() && ys.ok());
  // Table 2 (a): each side's state is its tuples spanning the sweep point.
  EXPECT_LE(peak, xs->max_concurrency + ys->max_concurrency + 2);
}

TEST(AllenSweepJoinTest, RejectsBeforeAfterAndBadOrders) {
  const TemporalRelation x = MakeIntervals("X", {{0, 10}});
  AllenSweepJoinOptions options;
  options.mask = AllenMask::Single(AllenRelation::kBefore);
  EXPECT_FALSE(MakeAllenSweepJoin(VectorStream::Scan(x),
                                  VectorStream::Scan(x), options)
                   .ok());
  options.mask = AllenMask::All();
  EXPECT_FALSE(MakeAllenSweepJoin(VectorStream::Scan(x),
                                  VectorStream::Scan(x), options)
                   .ok());
  options.mask = AllenMask::Intersecting();
  options.left_order = kByValidToAsc;
  options.right_order = kByValidToAsc;
  EXPECT_FALSE(MakeAllenSweepJoin(VectorStream::Scan(x),
                                  VectorStream::Scan(x), options)
                   .ok());
  options.left_order = kByValidFromAsc;
  options.right_order = kByValidToDesc;
  EXPECT_FALSE(MakeAllenSweepJoin(VectorStream::Scan(x),
                                  VectorStream::Scan(x), options)
                   .ok());
  options.mask = AllenMask::None();
  options.right_order = kByValidFromAsc;
  EXPECT_FALSE(MakeAllenSweepJoin(VectorStream::Scan(x),
                                  VectorStream::Scan(x), options)
                   .ok());
}

TEST(AllenSweepJoinTest, EmptyInputs) {
  const TemporalRelation x = MakeIntervals("X", {{0, 10}, {2, 5}});
  const TemporalRelation empty = MakeIntervals("E", {});
  CheckMask(x, empty, AllenMask::Intersecting());
  CheckMask(empty, x, AllenMask::Intersecting());
}

TEST(AllenSweepJoinTest, SingletonInputs) {
  const TemporalRelation x = MakeIntervals("X", {{0, 10}});
  const TemporalRelation touching = MakeIntervals("Y", {{3, 12}});
  const TemporalRelation apart = MakeIntervals("Y", {{20, 30}});
  CheckMask(x, touching, AllenMask::Intersecting());
  CheckMask(x, touching, AllenMask::Single(AllenRelation::kOverlaps));
  CheckMask(x, apart, AllenMask::Intersecting());
  CheckMask(x, x, AllenMask::Single(AllenRelation::kEqual), kByValidToDesc);
}

}  // namespace
}  // namespace tempus

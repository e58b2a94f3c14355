#include "join/containment_semijoin.h"

#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::ExpectSameTuples;
using ::tempus::testing::MakeIntervals;
using ::tempus::testing::MustMaterialize;
using ::tempus::testing::ReferenceMaskSemijoin;
using ::tempus::testing::SortedByOrder;

void CheckContain(const TemporalRelation& x, const TemporalRelation& y,
                  TemporalSortOrder xo, TemporalSortOrder yo,
                  bool frontier = false, size_t* peak = nullptr) {
  const TemporalRelation xs = SortedByOrder(x, xo);
  const TemporalRelation ys = SortedByOrder(y, yo);
  TemporalSemijoinOptions options;
  options.left_order = xo;
  options.right_order = yo;
  options.use_frontier_state = frontier;
  Result<std::unique_ptr<TupleStream>> semi = MakeContainSemijoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  const TemporalRelation out = MustMaterialize(semi->get(), "out");
  ExpectSameTuples(out,
                   ReferenceMaskSemijoin(
                       xs, ys, AllenMask::Single(AllenRelation::kContains)));
  if (peak != nullptr) *peak = (*semi)->metrics().peak_workspace_tuples;
}

void CheckContained(const TemporalRelation& x, const TemporalRelation& y,
                    TemporalSortOrder xo, TemporalSortOrder yo,
                    bool frontier = false, size_t* peak = nullptr) {
  const TemporalRelation xs = SortedByOrder(x, xo);
  const TemporalRelation ys = SortedByOrder(y, yo);
  TemporalSemijoinOptions options;
  options.left_order = xo;
  options.right_order = yo;
  options.use_frontier_state = frontier;
  Result<std::unique_ptr<TupleStream>> semi = MakeContainedSemijoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  ASSERT_TRUE(semi.ok()) << semi.status().ToString();
  const TemporalRelation out = MustMaterialize(semi->get(), "out");
  ExpectSameTuples(out,
                   ReferenceMaskSemijoin(
                       xs, ys, AllenMask::Single(AllenRelation::kDuring)));
  if (peak != nullptr) *peak = (*semi)->metrics().peak_workspace_tuples;
}

TEST(ContainmentSemijoinTest, PaperFigure6TwoBufferCase) {
  // Figure 6's setting: X sorted on TS^, Y on TE^; Contain-semijoin(X,Y)
  // needs only the two buffers.
  const TemporalRelation x =
      MakeIntervals("X", {{0, 12}, {3, 30}, {6, 9}, {10, 25}});
  const TemporalRelation y =
      MakeIntervals("Y", {{1, 2}, {4, 8}, {5, 20}, {11, 24}, {28, 29}});
  size_t peak = 99;
  CheckContain(x, y, kByValidFromAsc, kByValidToAsc, false, &peak);
  // Workspace is exactly <Buffer-x, Buffer-y>: no counted state tuples.
  EXPECT_EQ(peak, 0u);
}

TEST(ContainmentSemijoinTest, TwoBufferContainedMirrorPairs) {
  IntervalWorkloadConfig config;
  config.count = 250;
  config.seed = 31;
  config.mean_duration = 18.0;
  Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
  config.seed = 32;
  config.mean_duration = 5.0;
  Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
  ASSERT_TRUE(x.ok() && y.ok());
  // Contained-semijoin two-buffer: (X ValidTo^, Y ValidFrom^) + mirror.
  CheckContained(*x, *y, kByValidToAsc, kByValidFromAsc);
  CheckContained(*x, *y, kByValidFromDesc, kByValidToDesc);
  // Contain-semijoin two-buffer: (X ValidFrom^, Y ValidTo^) + mirror.
  CheckContain(*x, *y, kByValidFromAsc, kByValidToAsc);
  CheckContain(*x, *y, kByValidToDesc, kByValidFromDesc);
}

TEST(ContainmentSemijoinTest, SweepVariantsBothByValidFrom) {
  IntervalWorkloadConfig config;
  config.count = 250;
  config.seed = 41;
  config.mean_duration = 25.0;
  Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
  config.seed = 42;
  config.mean_duration = 6.0;
  Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
  ASSERT_TRUE(x.ok() && y.ok());
  CheckContain(*x, *y, kByValidFromAsc, kByValidFromAsc);
  CheckContain(*x, *y, kByValidToDesc, kByValidToDesc);
  CheckContained(*x, *y, kByValidFromAsc, kByValidFromAsc);
  CheckContained(*x, *y, kByValidToDesc, kByValidToDesc);
}

TEST(ContainmentSemijoinTest, FrontierStateMatchesPlainSweep) {
  IntervalWorkloadConfig config;
  config.count = 400;
  config.seed = 51;
  config.mean_duration = 30.0;
  config.duration_model = DurationModel::kPareto;
  Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
  config.seed = 52;
  config.mean_duration = 5.0;
  Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
  ASSERT_TRUE(x.ok() && y.ok());
  size_t plain_peak = 0;
  size_t frontier_peak = 0;
  CheckContained(*x, *y, kByValidFromAsc, kByValidFromAsc, false,
                 &plain_peak);
  CheckContained(*x, *y, kByValidFromAsc, kByValidFromAsc, true,
                 &frontier_peak);
  EXPECT_LE(frontier_peak, plain_peak);
}

TEST(ContainmentSemijoinTest, TieCases) {
  // Equal starts, equal ends, exact duplicates: strict containment must
  // exclude starts/finishes/equal.
  const TemporalRelation x =
      MakeIntervals("X", {{0, 10}, {0, 10}, {0, 5}, {2, 10}, {3, 7}});
  const TemporalRelation y =
      MakeIntervals("Y", {{0, 10}, {0, 5}, {2, 10}, {3, 7}, {4, 5}});
  CheckContain(x, y, kByValidFromAsc, kByValidToAsc);
  CheckContained(x, y, kByValidToAsc, kByValidFromAsc);
  CheckContain(x, y, kByValidFromAsc, kByValidFromAsc);
  CheckContained(x, y, kByValidFromAsc, kByValidFromAsc);
}

TEST(ContainmentSemijoinTest, EmptyInputs) {
  const TemporalRelation x = MakeIntervals("X", {{0, 10}});
  const TemporalRelation empty = MakeIntervals("E", {});
  CheckContain(x, empty, kByValidFromAsc, kByValidToAsc);
  CheckContain(empty, x, kByValidFromAsc, kByValidToAsc);
  CheckContained(empty, empty, kByValidToAsc, kByValidFromAsc);
}

TEST(ContainmentSemijoinTest, SingletonInputs) {
  const TemporalRelation container = MakeIntervals("X", {{0, 10}});
  const TemporalRelation inside = MakeIntervals("Y", {{2, 5}});
  CheckContain(container, inside, kByValidFromAsc, kByValidToAsc);
  CheckContain(inside, container, kByValidFromAsc, kByValidToAsc);
  CheckContained(inside, container, kByValidToAsc, kByValidFromAsc);
  CheckContained(container, inside, kByValidFromAsc, kByValidFromAsc);
  // Irreflexive: a single tuple never witnesses itself.
  CheckContain(container, container, kByValidFromAsc, kByValidFromAsc);
}

TEST(ContainmentSemijoinTest, SweepDiscardsDeadOnArrivalContainers) {
  // Regression (found by the differential harness; repro was
  // tempus_check --op=contained-semijoin --dist=sequential-meets
  // --left_order=to-desc --right_order=to-desc): under the sweep
  // orderings, a container whose span ends at or before the next
  // containee's sweep start can never witness anything, yet it used to
  // stay buffered until the next containee was processed — on a meets
  // chain the state grew with the input instead of holding the Table 1
  // bound mc_x + mc_y + 2 = 4.
  std::vector<std::pair<TimePoint, TimePoint>> chain;
  for (TimePoint t = 0; t < 40; t += 2) chain.push_back({t, t + 2});
  const TemporalRelation x = MakeIntervals("X", chain);
  size_t peak = 0;
  CheckContained(x, x, kByValidToDesc, kByValidToDesc, false, &peak);
  EXPECT_LE(peak, 4u);
  CheckContain(x, x, kByValidFromAsc, kByValidFromAsc, false, &peak);
  EXPECT_LE(peak, 4u);
}

TEST(ContainmentSemijoinTest, RejectsInappropriateOrderings) {
  const TemporalRelation x = MakeIntervals("X", {{0, 10}});
  TemporalSemijoinOptions options;
  options.left_order = kByValidToAsc;
  options.right_order = kByValidToAsc;
  EXPECT_FALSE(MakeContainSemijoin(VectorStream::Scan(x),
                                   VectorStream::Scan(x), options)
                   .ok());
  options.left_order = kByValidFromAsc;
  options.right_order = kByValidFromDesc;
  EXPECT_FALSE(MakeContainedSemijoin(VectorStream::Scan(x),
                                     VectorStream::Scan(x), options)
                   .ok());
  // The frontier keeps spans only, so it cannot emit containers.
  options.right_order = kByValidFromAsc;
  options.use_frontier_state = true;
  Result<std::unique_ptr<TupleStream>> frontier_contain = MakeContainSemijoin(
      VectorStream::Scan(x), VectorStream::Scan(x), options);
  ASSERT_FALSE(frontier_contain.ok());
  EXPECT_EQ(frontier_contain.status().code(), StatusCode::kInvalidArgument);
}

TEST(ContainmentSemijoinTest, SemijoinOutputPreservesInputOrder) {
  const TemporalRelation x =
      MakeIntervals("X", {{0, 20}, {1, 15}, {2, 9}, {5, 30}});
  const TemporalRelation y = MakeIntervals("Y", {{3, 5}, {6, 8}});
  TemporalSemijoinOptions options;
  options.left_order = kByValidFromAsc;
  options.right_order = kByValidToAsc;
  Result<std::unique_ptr<TupleStream>> semi = MakeContainSemijoin(
      VectorStream::Scan(x), VectorStream::Scan(y), options);
  ASSERT_TRUE(semi.ok());
  const TemporalRelation out = MustMaterialize(semi->get(), "out");
  // Order-preserving (Section 4.2.3 remark): ValidFrom nondecreasing.
  for (size_t i = 1; i < out.size(); ++i) {
    EXPECT_LE(out.LifespanOf(i - 1).start, out.LifespanOf(i).start);
  }
}

}  // namespace
}  // namespace tempus

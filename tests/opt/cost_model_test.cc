#include "opt/cost_model.h"

#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "stats/interval_stats.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

RelationStats StatsOf(double mean_duration, double mean_interarrival,
                      size_t count = 10'000) {
  RelationStats s;
  s.tuple_count = count;
  s.mean_duration = mean_duration;
  s.mean_interarrival = mean_interarrival;
  return s;
}

TEST(CostModelTest, ExpectedConcurrencyLittleLaw) {
  EXPECT_DOUBLE_EQ(ExpectedConcurrency(StatsOf(64, 4)), 16.0);
  EXPECT_DOUBLE_EQ(ExpectedConcurrency(StatsOf(4, 4)), 1.0);
  // Degenerate cases.
  EXPECT_DOUBLE_EQ(ExpectedConcurrency(StatsOf(10, 0, 50)), 50.0);
  EXPECT_DOUBLE_EQ(ExpectedConcurrency(StatsOf(10, 4, 0)), 0.0);
  // Clamped at the relation size.
  EXPECT_DOUBLE_EQ(ExpectedConcurrency(StatsOf(1e9, 1, 100)), 100.0);
}

TEST(CostModelTest, EmptyRelationsEstimateZeroWithBasis) {
  const RelationStats empty = StatsOf(0, 0, 0);
  const RelationStats y = StatsOf(8, 2);
  for (const WorkspaceEstimate& e :
       {EstimateContainJoinFromFrom(empty, y),
        EstimateContainJoinFromFrom(y, empty),
        EstimateContainJoinFromTo(empty, y), EstimateSweepJoin(empty, y),
        EstimateSweepSemijoin(empty), EstimateSort(empty)}) {
    EXPECT_DOUBLE_EQ(e.tuples, 0.0);
    // The guard explains itself rather than dividing by zero.
    EXPECT_NE(e.basis.find("empty"), std::string::npos) << e.basis;
  }
}

TEST(CostModelTest, ZeroInterarrivalNeverDivides) {
  // All tuples share one start: the estimate saturates at the relation
  // size instead of dividing by the zero mean interarrival.
  const RelationStats burst = StatsOf(10, 0, 64);
  EXPECT_DOUBLE_EQ(ExpectedConcurrency(burst), 64.0);
  const WorkspaceEstimate e = EstimateContainJoinFromFrom(burst, burst);
  EXPECT_DOUBLE_EQ(e.tuples, 65.0);
  // Detailed-path cardinality estimators hit the same guard.
  const IntervalStats bi = CoarseStats(burst);
  EXPECT_LE(EstimateIntersectingPairs(bi, bi), 64.0 * 64.0);
  EXPECT_GT(EstimateIntersectingPairs(bi, bi), 0.0);
}

TEST(CostModelTest, EmptyIntervalStatsCardinalitiesAreZero) {
  const IntervalStats empty = CoarseStats(StatsOf(0, 0, 0));
  const IntervalStats y = CoarseStats(StatsOf(8, 2));
  EXPECT_DOUBLE_EQ(EstimateIntersectingPairs(empty, y), 0.0);
  EXPECT_DOUBLE_EQ(EstimateBeforePairs(empty, y), 0.0);
  EXPECT_DOUBLE_EQ(EstimateContainPairs(empty, y), 0.0);
  EXPECT_DOUBLE_EQ(EstimateMaskJoinRows(empty, y, AllenMask::All()), 0.0);
  EXPECT_DOUBLE_EQ(EstimateSemijoinFraction(empty, y, AllenMask::All()), 0.0);
  EXPECT_DOUBLE_EQ(
      EstimateEndpointSelectivity(empty, true, SelOp::kLt, 100), 0.0);
}

TEST(CostModelTest, FromToChargesContainedContainees) {
  const RelationStats x = StatsOf(100, 4);
  const RelationStats short_y = StatsOf(5, 1);
  const RelationStats long_y = StatsOf(95, 1);
  const WorkspaceEstimate short_est = EstimateContainJoinFromTo(x, short_y);
  const WorkspaceEstimate long_est = EstimateContainJoinFromTo(x, long_y);
  // Short containees fit often -> more retained Y state.
  EXPECT_GT(short_est.tuples, long_est.tuples);
  EXPECT_FALSE(short_est.basis.empty());
  // Both exceed the pure (From^,From^) estimate.
  const WorkspaceEstimate ff = EstimateContainJoinFromFrom(x, short_y);
  EXPECT_GT(short_est.tuples, ff.tuples - 1.0);
}

TEST(CostModelTest, SweepJoinSumsBothSides) {
  const WorkspaceEstimate e =
      EstimateSweepJoin(StatsOf(64, 4), StatsOf(8, 2));
  EXPECT_DOUBLE_EQ(e.tuples, 16.0 + 4.0);
}

TEST(CostModelTest, SortBuffersWholeInput) {
  EXPECT_DOUBLE_EQ(EstimateSort(StatsOf(1, 1, 777)).tuples, 777.0);
}

TEST(CostModelTest, SortCostIsNLogN) {
  EXPECT_DOUBLE_EQ(EstimateSortCost(0.0), 0.0);
  EXPECT_DOUBLE_EQ(EstimateSortCost(1.0), 0.0);
  EXPECT_DOUBLE_EQ(EstimateSortCost(8.0), 24.0);
}

TEST(CostModelTest, EndpointSelectivityFallsBackWithoutHistograms) {
  const IntervalStats coarse = CoarseStats(StatsOf(16, 4));
  EXPECT_DOUBLE_EQ(
      EstimateEndpointSelectivity(coarse, true, SelOp::kEq, 10),
      kDefaultEqSelectivity);
  EXPECT_DOUBLE_EQ(
      EstimateEndpointSelectivity(coarse, true, SelOp::kNe, 10),
      1.0 - kDefaultEqSelectivity);
  EXPECT_DOUBLE_EQ(
      EstimateEndpointSelectivity(coarse, false, SelOp::kLt, 10),
      kDefaultRangeSelectivity);
}

TEST(CostModelTest, EndpointSelectivityReadsHistograms) {
  // 0..99 starts: P(start < 50) should be ~0.5 from the equi-depth
  // histogram.
  std::vector<std::pair<TimePoint, TimePoint>> spans;
  for (TimePoint t = 0; t < 100; ++t) spans.emplace_back(t, t + 5);
  const TemporalRelation rel = testing::MakeIntervals("R", spans);
  const IntervalStats stats = testing::BuildStats(rel).value();
  ASSERT_TRUE(stats.detailed);
  const double lt = EstimateEndpointSelectivity(stats, true, SelOp::kLt, 50);
  EXPECT_NEAR(lt, 0.5, 0.1);
  const double ge = EstimateEndpointSelectivity(stats, true, SelOp::kGe, 50);
  EXPECT_NEAR(lt + ge, 1.0, 1e-9);
}

TEST(CostModelTest, DetailedConcurrencyUsesProfile) {
  // Ten concurrent unit-spaced intervals: the stationary formula and the
  // measured profile should both land near 10, and the detailed overload
  // must prefer the profile.
  std::vector<std::pair<TimePoint, TimePoint>> spans;
  for (TimePoint t = 0; t < 100; ++t) spans.emplace_back(t, t + 10);
  const TemporalRelation rel = testing::MakeIntervals("R", spans);
  const IntervalStats stats = testing::BuildStats(rel).value();
  ASSERT_TRUE(stats.detailed);
  ASSERT_FALSE(stats.profile.empty());
  EXPECT_DOUBLE_EQ(ExpectedConcurrency(stats), stats.profile.mean_live);
  EXPECT_NEAR(ExpectedConcurrency(stats), 10.0, 2.0);
}

TEST(CostModelTest, PredictionTracksMeasurement) {
  // The estimate should land within a small factor of the measured peak
  // workspace for a stationary workload.
  IntervalWorkloadConfig config;
  config.count = 5000;
  config.mean_interarrival = 4.0;
  config.mean_duration = 64.0;
  config.seed = 3;
  const TemporalRelation x =
      GenerateIntervalRelation("X", config).value();
  const RelationStats xs = x.ComputeStats().value();
  const double predicted = ExpectedConcurrency(xs);
  // Measured max concurrency is the peak of the process whose MEAN the
  // model predicts; for exponential durations peak/mean is a small factor.
  EXPECT_GT(static_cast<double>(xs.max_concurrency), predicted * 0.8);
  EXPECT_LT(static_cast<double>(xs.max_concurrency), predicted * 4.0);
}

TEST(CostModelTest, SweepSemijoinUsesContainers) {
  const WorkspaceEstimate e = EstimateSweepSemijoin(StatsOf(64, 4));
  EXPECT_DOUBLE_EQ(e.tuples, 16.0);
}

TEST(CostModelTest, MaskJoinRowsRespectsCrossProductCeiling) {
  const IntervalStats x = CoarseStats(StatsOf(1e6, 1, 100));
  const IntervalStats y = CoarseStats(StatsOf(1e6, 1, 100));
  for (const AllenMask& mask :
       {AllenMask::All(), AllenMask::Intersecting(),
        AllenMask::Single(AllenRelation::kContains),
        AllenMask::Single(AllenRelation::kBefore)}) {
    EXPECT_LE(EstimateMaskJoinRows(x, y, mask), 100.0 * 100.0);
  }
  EXPECT_DOUBLE_EQ(EstimateMaskJoinRows(x, y, AllenMask()), 0.0);
}

}  // namespace
}  // namespace tempus

#include <algorithm>
#include <string>
#include <tuple>
#include <vector>

#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "opt/cost_model.h"
#include "stats/interval_stats.h"
#include "testing/test_util.h"
#include "testing/workload.h"

namespace tempus {
namespace {

using testing::AllArrangements;
using testing::AllDistributions;
using testing::Arrangement;
using testing::ArrangementName;
using testing::Distribution;
using testing::DistributionName;
using testing::MakeWorkloadRelation;
using testing::WorkloadSpec;

constexpr size_t kCount = 128;

/// Bounded-factor check with an absolute floor: adversarial distributions
/// legitimately break the stationarity assumptions, so the contract is
/// "within a factor of `factor` once either side clears the floor", not
/// point accuracy.
void ExpectWithinFactor(double estimate, double actual, double factor,
                        double floor, const std::string& what) {
  EXPECT_LE(estimate, factor * std::max(actual, floor))
      << what << ": estimate " << estimate << " vs actual " << actual;
  EXPECT_LE(actual, factor * std::max(estimate, floor))
      << what << ": estimate " << estimate << " vs actual " << actual;
}

struct GroundTruth {
  double intersecting_pairs = 0;
  double before_pairs = 0;
  double contain_pairs = 0;
  double frac_start_below_median = 0;
  TimePoint median_start = 0;
};

GroundTruth BruteForce(const TemporalRelation& x, const TemporalRelation& y) {
  GroundTruth truth;
  const AllenMask before = AllenMask::Single(AllenRelation::kBefore);
  const AllenMask contains = AllenMask::Single(AllenRelation::kContains);
  for (size_t i = 0; i < x.size(); ++i) {
    const Interval a = x.LifespanOf(i);
    for (size_t j = 0; j < y.size(); ++j) {
      const Interval b = y.LifespanOf(j);
      if (a.start < b.end && b.start < a.end) truth.intersecting_pairs += 1;
      if (before.HoldsBetween(a, b)) truth.before_pairs += 1;
      if (contains.HoldsBetween(a, b)) truth.contain_pairs += 1;
    }
  }
  std::vector<TimePoint> starts;
  for (size_t i = 0; i < x.size(); ++i) {
    starts.push_back(x.LifespanOf(i).start);
  }
  std::sort(starts.begin(), starts.end());
  truth.median_start = starts[starts.size() / 2];
  double below = 0;
  for (TimePoint s : starts) {
    if (s < truth.median_start) below += 1;
  }
  truth.frac_start_below_median = below / static_cast<double>(starts.size());
  return truth;
}

/// One property pass: detailed statistics on both sides, every cardinality
/// estimator against its brute-force oracle, bounded-factor assertions.
void CheckEstimators(Distribution d, Arrangement a) {
  const std::string what = std::string(DistributionName(d)) + "/" +
                           std::string(ArrangementName(a));
  WorkloadSpec spec;
  spec.distribution = d;
  spec.arrangement = a;
  spec.count = kCount;
  spec.seed = 11;
  const TemporalRelation x = MakeWorkloadRelation("x", spec).value();
  spec.seed = 12;
  const TemporalRelation y = MakeWorkloadRelation("y", spec).value();

  const IntervalStats xs = testing::BuildStats(x).value();
  const IntervalStats ys = testing::BuildStats(y).value();
  ASSERT_TRUE(xs.detailed);
  const GroundTruth truth = BruteForce(x, y);
  const double n = static_cast<double>(kCount);
  const double cross = n * n;

  // Cardinalities: within a factor with an n floor (an estimator that says
  // "about none" when the truth is "about none" should pass, not divide).
  const double est_intersect = EstimateIntersectingPairs(xs, ys);
  ExpectWithinFactor(est_intersect, truth.intersecting_pairs, 16.0, n,
                     what + " intersecting pairs");
  EXPECT_LE(est_intersect, cross);

  const double est_before = EstimateBeforePairs(xs, ys);
  ExpectWithinFactor(est_before, truth.before_pairs, 16.0, n,
                     what + " before pairs");
  EXPECT_LE(est_before, cross);

  // Containment demands strict inequality at both endpoints, which
  // endpoint-tie-heavy distributions defeat en masse; grant it a wider
  // factor than the coexistence estimators.
  const double est_contain = EstimateContainPairs(xs, ys);
  ExpectWithinFactor(est_contain, truth.contain_pairs, 32.0, n,
                     what + " contain pairs");
  EXPECT_LE(est_contain, cross);

  // The mask dispatcher agrees with the dedicated estimators.
  EXPECT_DOUBLE_EQ(
      EstimateMaskJoinRows(xs, ys, AllenMask::Intersecting()),
      est_intersect);
  EXPECT_DOUBLE_EQ(
      EstimateMaskJoinRows(xs, ys, AllenMask::Single(AllenRelation::kBefore)),
      est_before);
  EXPECT_DOUBLE_EQ(EstimateMaskJoinRows(xs, ys, AllenMask::All()), cross);

  // Semijoin fraction is a probability.
  const double frac =
      EstimateSemijoinFraction(xs, ys, AllenMask::Intersecting());
  EXPECT_GE(frac, 0.0);
  EXPECT_LE(frac, 1.0);

  // Workspace: the estimated mean concurrency brackets the measured peak
  // within a generous factor (peak >= mean always).
  const double concurrency = ExpectedConcurrency(xs);
  EXPECT_LE(concurrency, static_cast<double>(xs.tuple_count));
  ExpectWithinFactor(concurrency,
                     static_cast<double>(xs.max_concurrency), 16.0, 1.0,
                     what + " concurrency");

  // Histogram selectivity at the median start: absolute error bound. The
  // equi-depth histogram holds ~1/32 mass per bucket, but duplicate-heavy
  // inputs swell the bucket holding the repeated value (duplicates never
  // split across buckets), and a strictly-below probe at that exact value
  // then misses by up to the bucket's mass — allow a coarse 0.3.
  const double est_sel = EstimateEndpointSelectivity(
      xs, /*is_start=*/true, SelOp::kLt, truth.median_start);
  EXPECT_NEAR(est_sel, truth.frac_start_below_median, 0.3) << what;
}

TEST(EstimatorAccuracyTest, EveryDistributionTimesArrangement) {
  for (Distribution d : AllDistributions()) {
    for (Arrangement a : AllArrangements()) {
      CheckEstimators(d, a);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

// Coarse statistics (registered scalars only, as for a relation never
// analyzed) model durations as exponential: a Y fits inside an X with
// probability mean_x / (mean_x + mean_y). On stationary generated
// workloads that keeps the Contain-join estimate within 2x of the truth,
// for a self-join too, where a "Y shorter than the mean X" model says 0.
TEST(EstimatorAccuracyTest, CoarseContainPairsWithinFactorTwo) {
  struct Shape {
    const char* name;
    double mean_interarrival;
    double mean_duration;
    DurationModel model;
  };
  for (const Shape& shape : {Shape{"events", 4.0, 16.0,
                                   DurationModel::kExponential},
                             Shape{"dense_long", 1.0, 64.0,
                                   DurationModel::kExponential},
                             Shape{"uniform", 8.0, 32.0,
                                   DurationModel::kUniform}}) {
    IntervalWorkloadConfig config;
    config.count = 600;
    config.mean_interarrival = shape.mean_interarrival;
    config.mean_duration = shape.mean_duration;
    config.duration_model = shape.model;
    config.seed = 21;
    const TemporalRelation x = GenerateIntervalRelation("x", config).value();
    config.seed = 22;
    config.mean_duration = shape.mean_duration / 2;
    const TemporalRelation y = GenerateIntervalRelation("y", config).value();
    const IntervalStats xs = CoarseStats(x.ComputeStats().value());
    const IntervalStats ys = CoarseStats(y.ComputeStats().value());
    ASSERT_FALSE(xs.detailed);
    for (const auto& [label, right, right_stats] :
         {std::tuple<std::string, const TemporalRelation*,
                     const IntervalStats*>{"self", &x, &xs},
          {"shorter", &y, &ys}}) {
      const double actual = BruteForce(x, *right).contain_pairs;
      const double est = EstimateContainPairs(xs, *right_stats);
      const std::string what =
          std::string(shape.name) + " " + label + " contain pairs";
      EXPECT_GT(est, 0.0) << what;
      ExpectWithinFactor(est, actual, 2.0, 1.0, what);
    }
  }
}

}  // namespace
}  // namespace tempus

#include "stats/interval_stats.h"

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <utility>
#include <vector>

#include "buffer/buffer_manager.h"
#include "datagen/interval_gen.h"
#include "exec/engine.h"
#include "gtest/gtest.h"
#include "stats/stats_catalog.h"
#include "testing/test_util.h"
#include "testing/workload.h"

namespace tempus {
namespace {

using testing::MakeIntervals;

TEST(HistogramTest, EquiDepthBucketsBalance) {
  std::vector<TimePoint> values;
  for (TimePoint t = 0; t < 1000; ++t) values.push_back(t);
  const Histogram h = BuildEquiDepthHistogram(std::move(values), 10);
  ASSERT_EQ(h.buckets(), 10u);
  EXPECT_EQ(h.total, 1000u);
  for (uint64_t c : h.counts) {
    EXPECT_GE(c, 80u);
    EXPECT_LE(c, 120u);
  }
  EXPECT_NEAR(h.FractionBelow(500), 0.5, 0.05);
  EXPECT_DOUBLE_EQ(h.FractionBelow(-5), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionBelow(10'000), 1.0);
  EXPECT_NEAR(h.FractionBetween(250, 750), 0.5, 0.05);
}

TEST(HistogramTest, DuplicateHeavyInputCollapsesBuckets) {
  // 990 copies of 7 plus a few outliers: bounds never repeat, so the
  // histogram degrades to fewer buckets rather than zero-width ones.
  std::vector<TimePoint> values(990, 7);
  for (TimePoint t = 100; t < 110; ++t) values.push_back(t);
  const Histogram h = BuildEquiDepthHistogram(std::move(values), 16);
  EXPECT_LE(h.buckets(), 16u);
  EXPECT_GE(h.buckets(), 1u);
  EXPECT_EQ(h.total, 1000u);
  // Nearly everything sits below 50.
  EXPECT_GT(h.FractionBelow(50), 0.9);
}

TEST(HistogramTest, EmptyHistogramIsInert) {
  const Histogram h = BuildEquiDepthHistogram({}, 8);
  EXPECT_TRUE(h.empty());
  EXPECT_DOUBLE_EQ(h.FractionBelow(0), 0.0);
  EXPECT_DOUBLE_EQ(h.FractionBetween(0, 10), 0.0);
}

TEST(IntervalStatsTest, BuildComputesScalarsAndDistributions) {
  // 100 intervals, unit-spaced starts, duration 10 -> concurrency ~10.
  std::vector<std::pair<TimePoint, TimePoint>> spans;
  for (TimePoint t = 0; t < 100; ++t) spans.emplace_back(t, t + 10);
  const TemporalRelation rel = MakeIntervals("R", spans);
  const Result<IntervalStats> built = testing::BuildStats(rel, 8);
  ASSERT_TRUE(built.ok()) << built.status().ToString();
  const IntervalStats& s = built.value();
  EXPECT_TRUE(s.detailed);
  EXPECT_EQ(s.tuple_count, 100u);
  EXPECT_EQ(s.min_valid_from, 0);
  EXPECT_EQ(s.max_valid_to, 109);
  EXPECT_DOUBLE_EQ(s.mean_duration, 10.0);
  EXPECT_EQ(s.max_duration, 10);
  EXPECT_EQ(s.max_concurrency, 10u);
  EXPECT_LE(s.starts.buckets(), 8u);
  EXPECT_FALSE(s.durations.empty());
  // All durations are exactly 10.
  EXPECT_DOUBLE_EQ(s.durations.FractionBelow(10), 0.0);
  EXPECT_DOUBLE_EQ(s.durations.FractionBelow(11), 1.0);
  // Profile: plateau of 10 live tuples; time-weighted mean close to it.
  EXPECT_EQ(s.profile.max_live, 10u);
  EXPECT_GT(s.profile.mean_live, 5.0);
  EXPECT_EQ(s.profile.LiveAt(-1), 0u);
  EXPECT_EQ(s.profile.LiveAt(50), 10u);
}

TEST(IntervalStatsTest, ProfileSamplingStaysBounded) {
  // Many distinct event times must not produce an unbounded profile.
  std::vector<std::pair<TimePoint, TimePoint>> spans;
  for (TimePoint t = 0; t < 5000; ++t) spans.emplace_back(2 * t, 2 * t + 7);
  const IntervalStats s =
      testing::BuildStats(MakeIntervals("R", spans)).value();
  EXPECT_LE(s.profile.at.size(), 64u);
  EXPECT_EQ(s.profile.at.size(), s.profile.live.size());
  for (size_t i = 1; i < s.profile.at.size(); ++i) {
    EXPECT_LT(s.profile.at[i - 1], s.profile.at[i]);
  }
}

TEST(IntervalStatsTest, JsonRoundTripsDetailedStats) {
  std::vector<std::pair<TimePoint, TimePoint>> spans;
  for (TimePoint t = 0; t < 50; ++t) spans.emplace_back(3 * t, 3 * t + 20);
  const IntervalStats s =
      testing::BuildStats(MakeIntervals("R", spans), 8).value();
  const Result<IntervalStats> back = IntervalStats::FromJson(s.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  const IntervalStats& b = back.value();
  EXPECT_EQ(b.tuple_count, s.tuple_count);
  EXPECT_EQ(b.min_valid_from, s.min_valid_from);
  EXPECT_EQ(b.max_valid_to, s.max_valid_to);
  EXPECT_DOUBLE_EQ(b.mean_duration, s.mean_duration);
  EXPECT_EQ(b.max_duration, s.max_duration);
  EXPECT_DOUBLE_EQ(b.mean_interarrival, s.mean_interarrival);
  EXPECT_EQ(b.max_concurrency, s.max_concurrency);
  EXPECT_EQ(b.detailed, s.detailed);
  EXPECT_EQ(b.starts.bounds, s.starts.bounds);
  EXPECT_EQ(b.starts.counts, s.starts.counts);
  EXPECT_EQ(b.ends.bounds, s.ends.bounds);
  EXPECT_EQ(b.durations.bounds, s.durations.bounds);
  EXPECT_EQ(b.profile.at, s.profile.at);
  EXPECT_EQ(b.profile.live, s.profile.live);
  EXPECT_DOUBLE_EQ(b.profile.mean_live, s.profile.mean_live);
  EXPECT_EQ(b.profile.max_live, s.profile.max_live);
  // Stable serialization: the round-tripped value prints identically.
  EXPECT_EQ(b.ToJson(), s.ToJson());
}

TEST(IntervalStatsTest, JsonRoundTripsSentinelEndpoints) {
  // An empty relation keeps the kMaxTime/kMinTime sentinels; the JSON
  // codec must carry full-range int64 values exactly.
  const TemporalRelation empty = MakeIntervals("E", {});
  const IntervalStats s = testing::BuildStats(empty).value();
  EXPECT_EQ(s.tuple_count, 0u);
  EXPECT_EQ(s.min_valid_from, kMaxTime);
  EXPECT_EQ(s.max_valid_to, kMinTime);
  const Result<IntervalStats> back = IntervalStats::FromJson(s.ToJson());
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back.value().min_valid_from, kMaxTime);
  EXPECT_EQ(back.value().max_valid_to, kMinTime);
  EXPECT_EQ(back.value().ToJson(), s.ToJson());
}

TEST(IntervalStatsTest, FromJsonRejectsGarbage) {
  EXPECT_FALSE(IntervalStats::FromJson("").ok());
  EXPECT_FALSE(IntervalStats::FromJson("[]").ok());
  EXPECT_FALSE(IntervalStats::FromJson("{\"tuple_count\":1}").ok());
}

TEST(IntervalStatsTest, CoarseStatsMirrorScalars) {
  RelationStats scalars;
  scalars.tuple_count = 42;
  scalars.mean_duration = 8.0;
  scalars.mean_interarrival = 2.0;
  const IntervalStats s = CoarseStats(scalars);
  EXPECT_FALSE(s.detailed);
  EXPECT_EQ(s.tuple_count, 42u);
  EXPECT_TRUE(s.starts.empty());
  EXPECT_TRUE(s.profile.empty());
  const RelationStats round = s.Scalars();
  EXPECT_EQ(round.tuple_count, 42u);
  EXPECT_DOUBLE_EQ(round.mean_duration, 8.0);
  EXPECT_DOUBLE_EQ(round.mean_interarrival, 2.0);
}

TEST(StatsCatalogTest, PutLookupDrop) {
  StatsCatalog catalog;
  EXPECT_EQ(catalog.Lookup("r"), nullptr);
  IntervalStats s;
  s.tuple_count = 7;
  catalog.Put("r", s);
  const std::shared_ptr<const IntervalStats> got = catalog.Lookup("r");
  ASSERT_NE(got, nullptr);
  EXPECT_EQ(got->tuple_count, 7u);
  // Lookups are snapshots: replacing the entry leaves old handles valid.
  IntervalStats s2;
  s2.tuple_count = 9;
  catalog.Put("r", s2);
  EXPECT_EQ(got->tuple_count, 7u);
  EXPECT_EQ(catalog.Lookup("r")->tuple_count, 9u);
  EXPECT_EQ(catalog.Names(), std::vector<std::string>{"r"});
  catalog.Drop("r");
  EXPECT_EQ(catalog.Lookup("r"), nullptr);
  EXPECT_TRUE(catalog.Names().empty());
}

TEST(StatsCatalogTest, FreshnessTracksTupleCount) {
  StatsCatalog catalog;
  EXPECT_EQ(catalog.CheckFreshness("r", 10),
            StatsCatalog::Freshness::kMissing);
  IntervalStats s;
  s.tuple_count = 10;
  catalog.Put("r", s);
  EXPECT_EQ(catalog.CheckFreshness("r", 10),
            StatsCatalog::Freshness::kFresh);
  EXPECT_EQ(catalog.CheckFreshness("r", 11),
            StatsCatalog::Freshness::kStale);
  EXPECT_STREQ(
      StatsCatalog::FreshnessLabel(StatsCatalog::Freshness::kStale),
      "stale");
}

// `analyze` through the engine — scalars from the catalog entry, then
// histograms and profile — must reproduce, byte for byte, the statistics
// recorded in tests/stats/golden/analyze_stats.txt (one "<case> <json>"
// line per relation; regenerate with TEMPUS_UPDATE_GOLDENS=1).
TEST(IntervalStatsTest, AnalyzeMatchesGoldenOnEveryDistribution) {
  std::vector<TemporalRelation> relations;
  for (testing::Distribution d : testing::AllDistributions()) {
    testing::WorkloadSpec spec;
    spec.distribution = d;
    spec.count = 200;
    spec.seed = 5;
    relations.push_back(testing::MakeWorkloadRelation(
                            std::string(testing::DistributionName(d)), spec)
                            .value());
  }
  const std::pair<const char*, DurationModel> models[] = {
      {"uniform", DurationModel::kUniform},
      {"exponential", DurationModel::kExponential},
      {"pareto", DurationModel::kPareto}};
  for (const auto& [name, model] : models) {
    IntervalWorkloadConfig config;
    config.count = 300;
    config.seed = 9;
    config.duration_model = model;
    relations.push_back(GenerateIntervalRelation(name, config).value());
  }
  relations.push_back(GenerateNestedIntervals("nested", 20, 6, 3).value());

  BufferManager pool(8);  // Outlives the engine's spilled entry.
  Engine engine;
  std::vector<std::string> names;
  for (TemporalRelation& rel : relations) {
    names.push_back(rel.name());
    TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(std::move(rel)));
  }
  // A spilled relation is analyzed through the buffer pool.
  TEMPUS_ASSERT_OK(engine.SpillRelation("pareto", 16, &pool));

  std::string actual;
  for (const std::string& name : names) {
    Result<std::shared_ptr<const IntervalStats>> stats =
        engine.AnalyzeRelation(name);
    ASSERT_TRUE(stats.ok()) << name << ": " << stats.status().ToString();
    actual += name + " " + (*stats)->ToJson() + "\n";
  }
  const std::string path =
      std::string(TEMPUS_GOLDEN_DIR) + "/analyze_stats.txt";
  if (std::getenv("TEMPUS_UPDATE_GOLDENS") != nullptr) {
    std::ofstream out(path);
    ASSERT_TRUE(out.is_open()) << "cannot write golden " << path;
    out << actual;
    return;
  }
  std::ifstream in(path);
  ASSERT_TRUE(in.is_open()) << "missing golden " << path;
  std::stringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(actual, expected.str());
}

}  // namespace
}  // namespace tempus

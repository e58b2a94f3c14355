#include "opt/optimizer.h"

#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "stats/interval_stats.h"
#include "stats/stats_catalog.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using testing::MakeIntervals;

/// Scoped TEMPUS_OPTIMIZER override, restored on destruction.
class ScopedOptimizerEnv {
 public:
  explicit ScopedOptimizerEnv(const char* value) {
    const char* old = std::getenv("TEMPUS_OPTIMIZER");
    if (old != nullptr) saved_ = old;
    had_ = old != nullptr;
    if (value == nullptr) {
      unsetenv("TEMPUS_OPTIMIZER");
    } else {
      setenv("TEMPUS_OPTIMIZER", value, 1);
    }
  }
  ~ScopedOptimizerEnv() {
    if (had_) {
      setenv("TEMPUS_OPTIMIZER", saved_.c_str(), 1);
    } else {
      unsetenv("TEMPUS_OPTIMIZER");
    }
  }

 private:
  bool had_ = false;
  std::string saved_;
};

IntervalStats StatsOf(double mean_duration, double mean_interarrival,
                      uint64_t count = 10'000) {
  RelationStats s;
  s.tuple_count = count;
  s.mean_duration = mean_duration;
  s.mean_interarrival = mean_interarrival;
  return CoarseStats(s);
}

TEST(OptimizerModeTest, EnvParsing) {
  {
    ScopedOptimizerEnv env(nullptr);
    EXPECT_EQ(OptimizerModeFromEnv(), OptimizerMode::kCostBased);
  }
  for (const char* off : {"off", "OFF", "0", "false", "False"}) {
    ScopedOptimizerEnv env(off);
    EXPECT_EQ(OptimizerModeFromEnv(), OptimizerMode::kHeuristic) << off;
  }
  for (const char* on : {"on", "1", "cost", "anything"}) {
    ScopedOptimizerEnv env(on);
    EXPECT_EQ(OptimizerModeFromEnv(), OptimizerMode::kCostBased) << on;
  }
  EXPECT_STREQ(OptimizerModeName(OptimizerMode::kCostBased), "cost-based");
  EXPECT_STREQ(OptimizerModeName(OptimizerMode::kHeuristic), "heuristic");
}

TEST(OptimizerTest, HeuristicModeIgnoresDetailedStats) {
  // TEMPUS_OPTIMIZER=off must reproduce the pre-optimizer planner even
  // after `analyze`: StatsFor falls back to coarse scalars.
  StatsCatalog catalog;
  IntervalStats detailed =
      testing::BuildStats(MakeIntervals("r", {{0, 10}, {2, 8}, {4, 12}}))
          .value();
  catalog.Put("r", detailed);

  RelationStats fallback;
  fallback.tuple_count = 3;
  fallback.mean_duration = 8.0;
  fallback.mean_interarrival = 2.0;

  const Optimizer heuristic(OptimizerMode::kHeuristic, &catalog);
  EXPECT_FALSE(heuristic.StatsFor("r", fallback).detailed);

  const Optimizer cost(OptimizerMode::kCostBased, &catalog);
  EXPECT_TRUE(cost.StatsFor("r", fallback).detailed);
  EXPECT_FALSE(cost.StatsFor("missing", fallback).detailed);
  // Histograms of a relation since replaced at another size are stale.
  RelationStats resized = fallback;
  resized.tuple_count = 30;
  EXPECT_FALSE(cost.StatsFor("r", resized).detailed);
  EXPECT_EQ(cost.StatsFor("r", resized).tuple_count, 30u);
}

TEST(OptimizerTest, HeuristicReusesFreeOrderUnconditionally) {
  const Optimizer opt(OptimizerMode::kHeuristic, nullptr);
  const IntervalStats x = StatsOf(100, 4);
  const IntervalStats y = StatsOf(5, 1);
  // Free To^ order: reused even when (From^,From^) has less workspace.
  const OrderChoice to_choice =
      opt.ChooseContainJoinOrder(x, y, {kByValidToAsc});
  EXPECT_EQ(to_choice.right_order, kByValidToAsc);
  EXPECT_TRUE(to_choice.reused_order);
  EXPECT_TRUE(to_choice.rationale.empty());
  // No known order: pure workspace comparison with the original note.
  const OrderChoice open_choice =
      opt.ChooseContainJoinOrder(x, y, {});
  EXPECT_EQ(open_choice.right_order, kByValidFromAsc);
  EXPECT_NE(open_choice.rationale.find("ws(From^,From^)"),
            std::string::npos);
}

TEST(OptimizerTest, CostBasedPricesTheEnforcerSort) {
  const Optimizer opt(OptimizerMode::kCostBased, nullptr);
  const IntervalStats x = StatsOf(100, 4);
  const IntervalStats y = StatsOf(5, 1);
  // (From^,From^) has clearly less workspace; when neither order is free
  // the sort costs cancel and workspace decides.
  const OrderChoice open_choice =
      opt.ChooseContainJoinOrder(x, y, {});
  EXPECT_EQ(open_choice.right_order, kByValidFromAsc);
  EXPECT_FALSE(open_choice.reused_order);
  EXPECT_NE(open_choice.rationale.find("sort="), std::string::npos);
  // A free To^ order makes reuse win: the workspace delta cannot repay an
  // n log n sort at this scale.
  const OrderChoice to_choice =
      opt.ChooseContainJoinOrder(x, y, {kByValidToAsc});
  EXPECT_EQ(to_choice.right_order, kByValidToAsc);
  EXPECT_TRUE(to_choice.reused_order);
}

TEST(OptimizerTest, CostBasedPicksFromToWhenContaineesNeverFit) {
  const Optimizer opt(OptimizerMode::kCostBased, nullptr);
  // Y lifespans are longer than X's, so the (From^,To^) alternative never
  // retains a contained Y and strictly beats (From^,From^) once the equal
  // sort costs cancel.
  const IntervalStats x = StatsOf(100, 4);
  const IntervalStats y = StatsOf(200, 1);
  const OrderChoice choice = opt.ChooseContainJoinOrder(x, y, {});
  EXPECT_EQ(choice.right_order, kByValidToAsc);
  EXPECT_FALSE(choice.reused_order);
}

TEST(OptimizerTest, CascadeDpStartsFromTheSelectiveCore) {
  const Optimizer opt(OptimizerMode::kCostBased, nullptr);
  // Vars: 0 = huge, 1 and 2 = small and tightly linked to each other;
  // 0 joins 1 with selectivity 1.0 (cross product).
  const std::vector<double> base = {1e6, 10, 10};
  auto sel = [](size_t a, size_t b) {
    if ((a == 1 && b == 2) || (a == 2 && b == 1)) return 0.01;
    return 1.0;
  };
  const CascadeOrder order = opt.ChooseCascadeOrder(base, sel);
  ASSERT_EQ(order.order.size(), 3u);
  // The small linked pair must be joined before the huge relation joins.
  EXPECT_EQ(order.order[2], 0u);
  EXPECT_FALSE(order.rationale.empty());
}

TEST(OptimizerTest, CascadeHeuristicKeepsDeclarationOrder) {
  const Optimizer opt(OptimizerMode::kHeuristic, nullptr);
  const std::vector<double> base = {1e6, 10, 10};
  auto sel = [](size_t, size_t) { return 0.01; };
  const CascadeOrder order = opt.ChooseCascadeOrder(base, sel);
  EXPECT_EQ(order.order, (std::vector<size_t>{0, 1, 2}));
  EXPECT_TRUE(order.rationale.empty());
}

TEST(OptimizerTest, CascadeDegenerateSizes) {
  const Optimizer opt(OptimizerMode::kCostBased, nullptr);
  auto sel = [](size_t, size_t) { return 1.0; };
  EXPECT_TRUE(opt.ChooseCascadeOrder({}, sel).order.empty());
  const CascadeOrder one = opt.ChooseCascadeOrder({5.0}, sel);
  EXPECT_EQ(one.order, std::vector<size_t>{0});
  EXPECT_DOUBLE_EQ(one.est_rows, 5.0);
}

}  // namespace
}  // namespace tempus

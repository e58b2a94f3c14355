#include <string>
#include <vector>

#include "gtest/gtest.h"
#include "exec/engine.h"
#include "testing/test_util.h"
#include "testing/workload.h"

namespace tempus {
namespace {

using testing::AllDistributions;
using testing::Distribution;
using testing::DistributionName;
using testing::MakeWorkloadRelation;
using testing::WorkloadSpec;

/// The optimizer changes plans, never answers: for every workload and
/// query, cost-based and heuristic modes must produce identical result
/// multisets (rows may stream out in a different order when the chosen
/// sort orders differ).
class OptimizerDifferentialTest : public ::testing::Test {
 protected:
  void LoadWorkload(Engine* engine, Distribution d) {
    WorkloadSpec spec;
    spec.distribution = d;
    spec.count = 96;
    spec.seed = 21;
    TEMPUS_ASSERT_OK(
        engine->mutable_catalog()->Register(
            MakeWorkloadRelation("X", spec).value()));
    spec.seed = 22;
    TEMPUS_ASSERT_OK(
        engine->mutable_catalog()->Register(
            MakeWorkloadRelation("Y", spec).value()));
    spec.seed = 23;
    spec.count = 48;
    TEMPUS_ASSERT_OK(
        engine->mutable_catalog()->Register(
            MakeWorkloadRelation("Z", spec).value()));
    // Detailed statistics on every input so the cost-based mode actually
    // diverges from the heuristics (batch/cascade decisions are
    // gated on analyzed relations).
    for (const char* name : {"X", "Y", "Z"}) {
      TEMPUS_ASSERT_OK(engine->AnalyzeRelation(name).status());
    }
  }

  void LoadWorkload(Distribution d) { LoadWorkload(&engine_, d); }

  /// Runs `tql` in both modes and asserts multiset-identical results.
  void ExpectModesAgree(const Engine& engine, const std::string& tql,
                        const std::string& what) {
    PlannerOptions cost;
    cost.optimizer = OptimizerMode::kCostBased;
    PlannerOptions heuristic;
    heuristic.optimizer = OptimizerMode::kHeuristic;
    const Result<TemporalRelation> a = engine.Run(tql, cost);
    const Result<TemporalRelation> b = engine.Run(tql, heuristic);
    ASSERT_TRUE(a.ok()) << what << ": " << a.status().ToString();
    ASSERT_TRUE(b.ok()) << what << ": " << b.status().ToString();
    EXPECT_TRUE(a.value().EqualsIgnoringOrder(b.value()))
        << what << " diverged\ncost-based:\n"
        << a.value().ToString(20) << "heuristic:\n"
        << b.value().ToString(20);
    EXPECT_EQ(a.value().size(), b.value().size()) << what;
  }

  Engine engine_;
};

const std::vector<std::string>& Queries() {
  static const std::vector<std::string>* queries =
      new std::vector<std::string>{
          // Two-variable temporal operators (contain join, sweep join,
          // semijoins) — the sort-order decision lives here.
          "range of a is X range of b is Y retrieve (a.S, b.S) "
          "where b during a",
          "range of a is X range of b is Y retrieve (a.S, b.S) "
          "where a overlap b",
          "range of a is X range of b is Y retrieve (a.S) "
          "where a during b",
          "range of a is X range of b is Y retrieve (a.S, b.S) "
          "where a before b and a.S = b.S",
          // Self semijoin.
          "range of a is X range of b is X retrieve (a.S) where a during b",
          // Selections with endpoint predicates (histogram selectivity).
          "range of a is X retrieve (a.S, a.ValidFrom) "
          "where a.ValidFrom >= 8 and a.ValidTo <= 400",
          // Three-variable cascade: the DP may reorder the joins.
          "range of a is X range of b is Y range of c is Z "
          "retrieve (a.S, b.S, c.S) "
          "where a.S = b.S and b.S = c.S",
          "range of a is X range of b is Y range of c is Z "
          "retrieve (a.S, b.S, c.S) "
          "where a.S = b.S and b during c",
      };
  return *queries;
}

TEST_F(OptimizerDifferentialTest, ModesAgreeOnEveryDistribution) {
  for (Distribution d : AllDistributions()) {
    Engine engine;
    LoadWorkload(&engine, d);
    if (::testing::Test::HasFatalFailure()) return;
    for (const std::string& q : Queries()) {
      ExpectModesAgree(engine, q,
                       std::string(DistributionName(d)) + ": " + q);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST_F(OptimizerDifferentialTest, ExplainCarriesEstimatesAndMode) {
  LoadWorkload(Distribution::kRandomMix);
  PlannerOptions cost;
  cost.optimizer = OptimizerMode::kCostBased;
  const Result<PlannedQuery> planned = engine_.Prepare(
      "range of a is X range of b is Y retrieve (a.S, b.S) "
      "where b during a",
      cost);
  ASSERT_TRUE(planned.ok()) << planned.status().ToString();
  EXPECT_EQ(planned.value().optimizer_mode, "cost-based");
  // Every operator line carries an est=(rows= ws=) annotation.
  EXPECT_NE(planned.value().explain.find("est=(rows="), std::string::npos)
      << planned.value().explain;

  PlannerOptions heuristic;
  heuristic.optimizer = OptimizerMode::kHeuristic;
  const Result<PlannedQuery> hplanned = engine_.Prepare(
      "range of a is X range of b is Y retrieve (a.S, b.S) "
      "where b during a",
      heuristic);
  ASSERT_TRUE(hplanned.ok()) << hplanned.status().ToString();
  EXPECT_EQ(hplanned.value().optimizer_mode, "heuristic");
}

TEST_F(OptimizerDifferentialTest, AnalyzeReportShowsEstimatedVsMeasured) {
  LoadWorkload(Distribution::kRandomMix);
  PlannerOptions cost;
  cost.optimizer = OptimizerMode::kCostBased;
  const Result<std::string> report = engine_.ExplainAnalyze(
      "range of a is X range of b is Y retrieve (a.S, b.S) "
      "where b during a",
      cost);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  // Estimated and measured counters sit side by side per node.
  EXPECT_NE(report.value().find("(est rows="), std::string::npos)
      << report.value();
  EXPECT_NE(report.value().find("(actual"), std::string::npos)
      << report.value();
}

TEST_F(OptimizerDifferentialTest, AnalyzeStatementRefreshesStats) {
  LoadWorkload(Distribution::kRandomMix);
  const Result<TemporalRelation> out = engine_.Run("analyze X");
  ASSERT_TRUE(out.ok()) << out.status().ToString();
  ASSERT_EQ(out.value().size(), 1u);
  EXPECT_EQ(engine_.stats().CheckFreshness("X", 96),
            StatsCatalog::Freshness::kFresh);
  // Unknown relations fail cleanly.
  EXPECT_FALSE(engine_.Run("analyze Nope").ok());
  // `analyze` is a statement, not a query: Prepare rejects it.
  EXPECT_FALSE(engine_.Prepare("analyze X").ok());
}

}  // namespace
}  // namespace tempus

#include "exec/engine.h"

#include <algorithm>

#include "buffer/buffer_manager.h"
#include "datagen/faculty_gen.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"
#include "testing/workload.h"

namespace tempus {
namespace {

using ::tempus::testing::MakeIntervals;

TEST(EngineTest, RunSimpleQuery) {
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(
      MakeIntervals("R", {{0, 10}, {5, 8}, {20, 30}})));
  Result<TemporalRelation> result = engine.Run(
      "range of r is R retrieve (r.S, r.ValidFrom) where r.ValidTo <= 10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 2u);
  EXPECT_EQ(result->schema().attribute(0).name, "r.S");
}

TEST(EngineTest, ExplainShowsPlan) {
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(
      MakeIntervals("R", {{0, 10}, {5, 8}})));
  Result<std::string> explain = engine.Explain(
      "range of a is R range of b is R retrieve (a.S) where a during b");
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("Scan R"), std::string::npos) << *explain;
}

TEST(EngineTest, ParseErrorsPropagate) {
  Engine engine;
  EXPECT_FALSE(engine.Run("retrieve garbage").ok());
}

TEST(EngineTest, UnknownRelationErrors) {
  Engine engine;
  EXPECT_FALSE(engine.Run("range of r is Nope retrieve (r.S)").ok());
}

TEST(EngineTest, RegisterValidatedEnforcesIntegrity) {
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_integrity()->AddChronologicalDomain(
      "Faculty", FacultyRankDomain(false)));
  TemporalRelation bad("Faculty", FacultySchema());
  TEMPUS_ASSERT_OK(
      bad.AppendRow(Value::Str("A"), Value::Str("Full"), 0, 5));
  TEMPUS_ASSERT_OK(
      bad.AppendRow(Value::Str("A"), Value::Str("Assistant"), 5, 9));
  EXPECT_FALSE(engine.RegisterValidated(std::move(bad)).ok());

  FacultyWorkloadConfig config;
  config.faculty_count = 20;
  Result<TemporalRelation> good = GenerateFaculty("Faculty", config);
  ASSERT_TRUE(good.ok());
  TEMPUS_EXPECT_OK(engine.RegisterValidated(std::move(good).value()));
}

TEST(EngineTest, PlannerOptionsReachExecution) {
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(
      MakeIntervals("R", {{0, 10}, {2, 4}, {3, 5}})));
  const std::string query =
      "range of a is R range of b is R retrieve (a.S, b.S) "
      "where a contains b";
  PlannerOptions stream;
  PlannerOptions naive;
  naive.style = PlanStyle::kNaive;
  Result<TemporalRelation> r1 = engine.Run(query, stream);
  Result<TemporalRelation> r2 = engine.Run(query, naive);
  ASSERT_TRUE(r1.ok() && r2.ok());
  EXPECT_TRUE(r1->EqualsIgnoringOrder(*r2));
  Result<std::string> explain1 = engine.Explain(query, stream);
  Result<std::string> explain2 = engine.Explain(query, naive);
  ASSERT_TRUE(explain1.ok() && explain2.ok());
  EXPECT_NE(explain1->find("Contain-join"), std::string::npos);
  EXPECT_EQ(explain2->find("Contain-join"), std::string::npos);
}


TEST(EngineTest, OrderByOnOutputs) {
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(
      MakeIntervals("R", {{5, 9}, {0, 10}, {3, 4}})));
  Result<TemporalRelation> result = engine.Run(
      "range of r is R retrieve (r.S, r.ValidFrom) order by r.ValidFrom "
      "desc");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  ASSERT_EQ(result->size(), 3u);
  EXPECT_EQ(result->tuple(0)[1].time_value(), 5);
  EXPECT_EQ(result->tuple(1)[1].time_value(), 3);
  EXPECT_EQ(result->tuple(2)[1].time_value(), 0);
  // Order-by column must be in the target list when one is given.
  EXPECT_FALSE(engine
                   .Run("range of r is R retrieve (r.S) order by "
                        "r.ValidTo")
                   .ok());
}


TEST(EngineTest, CsvRoundTripThroughFiles) {
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(
      MakeIntervals("R", {{0, 10}, {5, 8}})));
  const std::string path = ::testing::TempDir() + "/tempus_engine_test.csv";
  TEMPUS_ASSERT_OK(engine.SaveCsv("R", path));
  TEMPUS_ASSERT_OK(engine.LoadCsv("R2", path));
  Result<TemporalRelation> result =
      engine.Run("range of r is R2 retrieve (r.S) where r.ValidTo <= 10");
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->size(), 2u);
  EXPECT_FALSE(engine.SaveCsv("Missing", path).ok());
  EXPECT_FALSE(engine.LoadCsv("X", "/nonexistent/dir/x.csv").ok());
}

/// Registers a 200-tuple workload relation under `name`.
void RegisterWorkload(Engine* engine, const std::string& name,
                      uint64_t seed) {
  tempus::testing::WorkloadSpec spec;
  spec.distribution = tempus::testing::Distribution::kRandomMix;
  spec.arrangement = tempus::testing::Arrangement::kShuffled;
  spec.count = 200;
  spec.seed = seed;
  Result<TemporalRelation> rel =
      tempus::testing::MakeWorkloadRelation(name, spec);
  TEMPUS_ASSERT_OK(rel.status());
  TEMPUS_ASSERT_OK(engine->mutable_catalog()->Register(std::move(*rel)));
}

TEST(EngineTest, SpillRelationKeepsQueryResultsIdentical) {
  // The pool outlives the engine: the catalog's page files deregister
  // themselves from it on destruction.
  BufferManager pool(8);
  Engine engine;
  RegisterWorkload(&engine, "X", 21);
  RegisterWorkload(&engine, "Y", 22);
  const std::string tql =
      "range of a is X range of b is Y retrieve (a.S, b.S) "
      "where b during a";

  Result<TemporalRelation> before = engine.Run(tql);
  ASSERT_TRUE(before.ok()) << before.status().ToString();
  ASSERT_GT(before->size(), 0u);

  // 25 pages per operand through an 8-frame pool: far over budget.
  TEMPUS_ASSERT_OK(engine.SpillRelation("X", 8, &pool));
  TEMPUS_ASSERT_OK(engine.SpillRelation("Y", 8, &pool));
  EXPECT_FALSE(engine.SpillRelation("Nope", 8, &pool).ok());

  Result<std::string> explain = engine.Explain(tql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("DiskScan X"), std::string::npos) << *explain;
  EXPECT_NE(explain->find("compressed]"), std::string::npos) << *explain;

  Result<TemporalRelation> after = engine.Run(tql);
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  testing::ExpectSameTuples(*after, *before);
}

TEST(EngineTest, PushedEndpointSelectionIsEvaluatedOnce) {
  Engine engine;
  RegisterWorkload(&engine, "R", 41);
  const std::string tql =
      "range of a is R range of b is R retrieve (a.S, b.S) "
      "where a overlap b and a.ValidFrom < 30";
  // The Select under the join evaluates a.ValidFrom < 30; no Filter above
  // the join evaluates it again.
  Result<std::string> explain = engine.Explain(tql);
  ASSERT_TRUE(explain.ok()) << explain.status().ToString();
  EXPECT_NE(explain->find("Select [a.ValidFrom < 30]"), std::string::npos)
      << *explain;
  EXPECT_EQ(explain->find("Filter ["), std::string::npos) << *explain;

  // Same rows as the brute-force pairs.
  const TemporalRelation& r = *engine.catalog().Lookup("R").value();
  std::vector<std::string> expected;
  for (size_t i = 0; i < r.size(); ++i) {
    const Interval a = r.LifespanOf(i);
    if (a.start >= 30) continue;
    for (size_t j = 0; j < r.size(); ++j) {
      const Interval b = r.LifespanOf(j);
      if (a.start < b.end && b.start < a.end) {
        expected.push_back(r.tuple(i)[0].ToString() + "," +
                           r.tuple(j)[0].ToString());
      }
    }
  }
  Result<TemporalRelation> result = engine.Run(tql);
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  std::vector<std::string> actual;
  for (const Tuple& t : result->tuples()) {
    actual.push_back(t[0].ToString() + "," + t[1].ToString());
  }
  std::sort(expected.begin(), expected.end());
  std::sort(actual.begin(), actual.end());
  ASSERT_GT(expected.size(), 0u);
  EXPECT_EQ(actual, expected);
}

TEST(EngineTest, StaleAnalyzeStatsAreIgnoredAfterReplace) {
  tempus::testing::WorkloadSpec spec;
  spec.count = 100;
  Engine engine;
  TEMPUS_ASSERT_OK(engine.mutable_catalog()->Register(
      tempus::testing::MakeWorkloadRelation("R", spec).value()));
  TEMPUS_ASSERT_OK(engine.AnalyzeRelation("R").status());
  // Replace R with a relation ten times larger; its histograms go stale.
  spec.count = 1000;
  const TemporalRelation bigger =
      tempus::testing::MakeWorkloadRelation("R", spec).value();
  engine.mutable_catalog()->RegisterOrReplace(bigger);
  Engine never_analyzed;
  TEMPUS_ASSERT_OK(never_analyzed.mutable_catalog()->Register(bigger));

  PlannerOptions options;
  options.optimizer = OptimizerMode::kCostBased;
  const std::string tql =
      "range of a is R range of b is R retrieve (a.S, b.S) "
      "where a overlap b and a.ValidFrom < 300";
  Result<std::string> stale = engine.Explain(tql, options);
  ASSERT_TRUE(stale.ok()) << stale.status().ToString();
  EXPECT_NE(stale->find("IndexScan R [ValidFrom^] [1000 tuples] "
                        "est=(rows=1000 "),
            std::string::npos)
      << *stale;
  // The planner costs R from its new catalog entry, exactly as if it had
  // never been analyzed.
  Result<std::string> coarse = never_analyzed.Explain(tql, options);
  ASSERT_TRUE(coarse.ok()) << coarse.status().ToString();
  EXPECT_EQ(*stale, *coarse);

  // Analyzing again brings the histograms back into play.
  TEMPUS_ASSERT_OK(engine.AnalyzeRelation("R").status());
  EXPECT_EQ(engine.stats().CheckFreshness("R", 1000),
            StatsCatalog::Freshness::kFresh);
}

TEST(EngineTest, ExplainAnalyzeOnSpilledRelationsShowsBufferTraffic) {
  BufferManager pool(8);  // Must outlive the engine (see above).
  Engine engine;
  RegisterWorkload(&engine, "X", 31);
  RegisterWorkload(&engine, "Y", 32);
  TEMPUS_ASSERT_OK(engine.SpillRelation("X", 8, &pool));
  TEMPUS_ASSERT_OK(engine.SpillRelation("Y", 8, &pool));
  const std::string tql =
      "range of a is X range of b is Y retrieve (a.S, b.S) "
      "where b during a";

  // Plan-wide metrics carry real pool traffic: the scans missed, the
  // readahead turned later pages into hits, and the 8-frame pool had to
  // evict to fit 50 data pages. Batches of one page (8 rows) keep the
  // pins to a few frames: a disk batch pins every page it spans until it
  // is cleared, so two streaming scans of 1024-row batches would pin all
  // 50 pages at once, and the pool overcommits instead of evicting.
  PlannerOptions one_page_batches;
  one_page_batches.batch_size = 8;
  Result<QueryRun> run = engine.RunQuery(tql, one_page_batches);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  TEMPUS_ASSERT_OK(run->status);
  EXPECT_GT(run->metrics.buffer_misses, 0u);
  EXPECT_GT(run->metrics.buffer_hits, 0u);
  EXPECT_GT(run->metrics.buffer_evictions, 0u);
  EXPECT_GT(run->metrics.buffer_bytes_read, 0u);

  // The human-facing report surfaces the same story: disk scans labeled
  // with their compression ratio and a buf=() counter group.
  Result<std::string> report = engine.ExplainAnalyze(tql);
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  EXPECT_NE(report->find("DiskScan X"), std::string::npos) << *report;
  EXPECT_NE(report->find("compressed]"), std::string::npos) << *report;
  EXPECT_NE(report->find(" buf=(hit="), std::string::npos) << *report;
}

}  // namespace
}  // namespace tempus

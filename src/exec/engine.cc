#include "exec/engine.h"

#include <fstream>

#include "buffer/buffer_manager.h"
#include "common/string_util.h"
#include "relation/csv.h"
#include "stats/interval_stats.h"
#include "storage/paged_relation.h"
#include "storage/paged_stream.h"

namespace tempus {
namespace {

/// Wraps a multi-line report into a one-string-column relation so EXPLAIN
/// output flows through the same Result<TemporalRelation> channel as data.
Result<TemporalRelation> TextRelation(const std::string& name,
                                      const std::string& column,
                                      const std::string& text) {
  TEMPUS_ASSIGN_OR_RETURN(Schema schema,
                          Schema::Create({{column, ValueType::kString}}));
  TemporalRelation out(name, std::move(schema));
  size_t start = 0;
  while (start < text.size()) {
    size_t end = text.find('\n', start);
    if (end == std::string::npos) end = text.size();
    TEMPUS_RETURN_IF_ERROR(
        out.Append(Tuple({Value::Str(text.substr(start, end - start))})));
    start = end + 1;
  }
  return out;
}

}  // namespace

Result<PlannedQuery> Engine::Prepare(const std::string& tql,
                                     const PlannerOptions& options) const {
  TEMPUS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseTql(tql));
  if (!query.analyze_target.empty()) {
    return Status::InvalidArgument(
        "'analyze <relation>' is a statement, not a query; run it through "
        "Run/RunQuery");
  }
  Planner planner(&catalog_, &integrity_, &stats_);
  return planner.Plan(query, options);
}

Result<TemporalRelation> Engine::Run(const std::string& tql,
                                     const PlannerOptions& options) const {
  TEMPUS_ASSIGN_OR_RETURN(QueryRun run, RunQuery(tql, options));
  TEMPUS_RETURN_IF_ERROR(run.status);
  return std::move(run.result);
}

Result<QueryRun> Engine::RunQuery(const std::string& tql,
                                  const PlannerOptions& options) const {
  TEMPUS_ASSIGN_OR_RETURN(ConjunctiveQuery query, ParseTql(tql));
  if (!query.analyze_target.empty()) {
    TEMPUS_ASSIGN_OR_RETURN(std::shared_ptr<const IntervalStats> stats,
                            AnalyzeRelation(query.analyze_target));
    QueryRun run;
    TEMPUS_ASSIGN_OR_RETURN(
        run.result,
        TextRelation(
            "Analyze", "ANALYZE",
            StrFormat("analyzed %s: %llu tuples, %zu/%zu/%zu histogram "
                      "buckets (starts/ends/durations), %zu profile samples",
                      query.analyze_target.c_str(),
                      static_cast<unsigned long long>(stats->tuple_count),
                      stats->starts.buckets(), stats->ends.buckets(),
                      stats->durations.buckets(), stats->profile.at.size())));
    return run;
  }
  // Pin the relations this query can see: the plan borrows tuple storage
  // from the snapshot's shared handles, so a concurrent Drop or replace
  // in catalog_ cannot pull them out from under a running scan.
  const Catalog snapshot = catalog_.Snapshot();
  Planner planner(&snapshot, &integrity_, &stats_);
  TEMPUS_ASSIGN_OR_RETURN(PlannedQuery planned, planner.Plan(query, options));
  QueryRun run;
  run.explain = planned.explain;
  run.optimizer_mode = planned.optimizer_mode;
  run.rationale = planned.rationale;
  if (query.explain_mode == ExplainMode::kPlan) {
    run.plan_json = planned.TraceJson();
    TEMPUS_ASSIGN_OR_RETURN(
        run.result, TextRelation("QueryPlan", "QUERY PLAN", planned.explain));
    return run;
  }
  Result<TemporalRelation> result = planned.Execute();
  if (planned.root != nullptr) {
    run.metrics = CollectPlanMetrics(*planned.root);
  }
  run.plan_json = planned.TraceJson();
  if (planned.trace != nullptr) {
    run.analyze_report = planned.AnalyzeReport();
  }
  if (!result.ok()) {
    run.status = result.status();
    return run;
  }
  if (query.explain_mode == ExplainMode::kAnalyze) {
    TEMPUS_ASSIGN_OR_RETURN(
        run.result,
        TextRelation("QueryPlan", "QUERY PLAN", planned.AnalyzeReport()));
    return run;
  }
  run.result = std::move(result).value();
  return run;
}

Result<std::string> Engine::Explain(const std::string& tql,
                                    const PlannerOptions& options) const {
  TEMPUS_ASSIGN_OR_RETURN(PlannedQuery planned, Prepare(tql, options));
  return planned.explain;
}

Result<std::string> Engine::ExplainAnalyze(const std::string& tql,
                                           const PlannerOptions& options) const {
  PlannerOptions traced = options;
  traced.analyze = true;
  TEMPUS_ASSIGN_OR_RETURN(PlannedQuery planned, Prepare(tql, traced));
  TEMPUS_ASSIGN_OR_RETURN(TemporalRelation result, planned.Execute());
  (void)result;
  return planned.AnalyzeReport();
}

Status Engine::RegisterValidated(TemporalRelation relation) {
  TEMPUS_RETURN_IF_ERROR(integrity_.Validate(relation));
  return catalog_.Register(std::move(relation));
}

Status Engine::LoadCsv(const std::string& name, const std::string& path) {
  std::ifstream in(path);
  if (!in.is_open()) {
    return Status::NotFound("cannot open CSV file: " + path);
  }
  TEMPUS_ASSIGN_OR_RETURN(TemporalRelation relation, ReadCsv(name, &in));
  return RegisterValidated(std::move(relation));
}

Status Engine::SaveCsv(const std::string& name,
                       const std::string& path) const {
  TEMPUS_ASSIGN_OR_RETURN(const TemporalRelation* relation,
                          catalog_.Lookup(name));
  std::ofstream out(path);
  if (!out.is_open()) {
    return Status::InvalidArgument("cannot open CSV file for writing: " +
                                   path);
  }
  return WriteCsv(*relation, &out);
}

Result<std::shared_ptr<const IntervalStats>> Engine::AnalyzeRelation(
    const std::string& name) const {
  TEMPUS_ASSIGN_OR_RETURN(Catalog::Entry entry, catalog_.Find(name));
  if (!entry.stats.has_value()) {
    return Status::FailedPrecondition("analyze requires a temporal schema: " +
                                      name);
  }
  IntervalStats stats;
  if (entry.relation != nullptr) {
    TEMPUS_ASSIGN_OR_RETURN(
        stats, BuildIntervalStats(*entry.relation, *entry.stats, *entry.index));
  } else {
    // Disk-backed relation: materialize through the buffer pool (analyze
    // is a full scan by definition; the pool bounds residency) and index
    // the copy, whose rows are in the page file's order.
    PagedScanStream scan(entry.paged, nullptr);
    TEMPUS_ASSIGN_OR_RETURN(TemporalRelation materialized,
                            Materialize(&scan, name));
    TEMPUS_ASSIGN_OR_RETURN(IndexedStats indexed,
                            IndexEndpoints(materialized));
    TEMPUS_ASSIGN_OR_RETURN(stats,
                            BuildIntervalStats(materialized, *entry.stats,
                                               indexed.index));
  }
  stats_.Put(name, std::move(stats));
  return stats_.Lookup(name);
}

Status Engine::DropRelation(const std::string& name) {
  stats_.Drop(name);
  return catalog_.Drop(name);
}

Status Engine::SpillRelation(const std::string& name, size_t tuples_per_page,
                             BufferManager* pool) {
  if (pool == nullptr) pool = &BufferManager::Global();
  TEMPUS_ASSIGN_OR_RETURN(Catalog::Entry entry, catalog_.Find(name));
  if (entry.relation == nullptr) {
    return Status::NotFound("unknown relation: " + name);
  }
  TEMPUS_ASSIGN_OR_RETURN(
      PagedRelation paged,
      PagedRelation::SpillToDisk(*entry.relation, tuples_per_page, pool,
                                 nullptr, entry.index.get()));
  catalog_.RegisterOrReplacePaged(
      name, std::make_shared<const PagedRelation>(std::move(paged)),
      std::move(entry.stats));
  return Status::Ok();
}

}  // namespace tempus

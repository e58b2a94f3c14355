#ifndef TEMPUS_EXEC_ENGINE_H_
#define TEMPUS_EXEC_ENGINE_H_

#include <string>
#include <vector>

#include "plan/planner.h"
#include "relation/catalog.h"
#include "semantic/integrity.h"
#include "stats/stats_catalog.h"
#include "stream/metrics.h"
#include "tql/parser.h"

namespace tempus {

class BufferManager;

/// Everything one query execution produced — the unit the TQL server
/// streams back to a client. `status` is the *execution* outcome
/// (Cancelled on deadline expiry, etc.); parse and plan failures surface
/// as the error of Engine::RunQuery itself. `metrics` is the plan-wide
/// rollup and is populated even when execution fails, so callers can
/// account cancelled work (the GC-ledger identity holds at the point of
/// abandonment).
struct QueryRun {
  Status status;
  /// The result relation (or the "QUERY PLAN" text relation for explain
  /// statements). Valid iff status.ok().
  TemporalRelation result;
  std::string explain;
  /// Single-line plan JSON (obs/plan_report.h), with spans when analyze
  /// was on.
  std::string plan_json;
  /// EXPLAIN ANALYZE report; non-empty iff planned with analyze.
  std::string analyze_report;
  /// Which optimizer planned this query ("cost-based" or "heuristic") and
  /// the choices it recorded; the server surfaces both in the per-query
  /// metrics JSON and its stats endpoint (docs/OPTIMIZER.md).
  std::string optimizer_mode;
  std::vector<std::string> rationale;
  OperatorMetrics metrics;
};

/// The top-level facade: a catalog of relations, an integrity catalog, and
/// TQL execution. This is the five-line entry point of the quickstart:
///
///   Engine engine;
///   engine.mutable_catalog()->Register(my_relation);
///   auto result = engine.Run("range of x is R ... retrieve (...) ...");
class Engine {
 public:
  Catalog* mutable_catalog() { return &catalog_; }
  const Catalog& catalog() const { return catalog_; }
  IntegrityCatalog* mutable_integrity() { return &integrity_; }
  const IntegrityCatalog& integrity() const { return integrity_; }
  /// Per-relation interval statistics built by `analyze <relation>`; the
  /// cost-based optimizer reads them at plan time (docs/OPTIMIZER.md).
  const StatsCatalog& stats() const { return stats_; }

  /// Parses and plans `tql` without executing it.
  Result<PlannedQuery> Prepare(const std::string& tql,
                               const PlannerOptions& options = {}) const;

  /// Parses, plans, and executes `tql`, returning the result relation.
  /// A query prefixed `explain` returns the plan tree (without executing)
  /// as a single-column "QUERY PLAN" relation; `explain analyze` executes
  /// the query and returns the plan annotated with runtime counters, GC
  /// accounting, and wall time (docs/OBSERVABILITY.md).
  Result<TemporalRelation> Run(const std::string& tql,
                               const PlannerOptions& options = {}) const;

  /// The full-fat execution path behind Run(): parses, plans against a
  /// Catalog::Snapshot() taken at call time (so concurrent load/drop
  /// cannot race the scan — the relations the plan borrows stay alive for
  /// the whole run), executes, and reports result, metrics, and plan JSON
  /// together. The returned Result is an error only for parse/plan
  /// failures; execution failures (including Status::Cancelled via
  /// options.cancel) are carried in QueryRun::status so the metrics of
  /// the abandoned plan remain observable.
  Result<QueryRun> RunQuery(const std::string& tql,
                            const PlannerOptions& options = {}) const;

  /// Returns the plan tree (with semantic-optimization annotations) that
  /// `tql` would execute under.
  Result<std::string> Explain(const std::string& tql,
                              const PlannerOptions& options = {}) const;

  /// Plans `tql` with tracing enabled, executes it, and returns the
  /// EXPLAIN ANALYZE report (the result relation is discarded).
  Result<std::string> ExplainAnalyze(const std::string& tql,
                                     const PlannerOptions& options = {}) const;

  /// Registers `relation` and validates it against the integrity catalog's
  /// constraints for its name.
  Status RegisterValidated(TemporalRelation relation);

  /// Loads a relation named `name` from a CSV file (see relation/csv.h for
  /// the format), validates it against the integrity catalog, and
  /// registers it.
  Status LoadCsv(const std::string& name, const std::string& path);

  /// Writes a registered relation to a CSV file.
  Status SaveCsv(const std::string& name, const std::string& path) const;

  /// Builds (or refreshes) interval statistics for relation `name` — its
  /// registered scalar stats plus endpoint/duration histograms and the
  /// live-tuple concurrency profile (docs/OPTIMIZER.md) — and stores them
  /// in the stats catalog; FailedPrecondition for a non-temporal schema.
  /// Works for in-memory and disk-backed (spilled) relations; the latter
  /// are scanned through the buffer pool. Const because query execution
  /// is const: the "analyze <relation>" TQL statement lands here from
  /// RunQuery, and the stats catalog is internally synchronized.
  Result<std::shared_ptr<const IntervalStats>> AnalyzeRelation(
      const std::string& name) const;

  /// Drops a relation from the catalog (and forgets its statistics);
  /// running snapshot-based queries keep their view (see
  /// Catalog::Snapshot).
  Status DropRelation(const std::string& name);

  /// Spills the in-memory relation `name` to a compressed on-disk page
  /// file, written in the ValidFrom^ order of its endpoint index and
  /// declaring that order, and atomically re-registers it as disk-backed,
  /// keeping the stats its catalog entry got at registration: subsequent
  /// queries scan it through the buffer pool (docs/STORAGE.md). Running snapshot-based
  /// queries keep the in-memory copy alive until they finish. `pool`
  /// defaults to BufferManager::Global().
  Status SpillRelation(const std::string& name, size_t tuples_per_page = 1024,
                       BufferManager* pool = nullptr);

 private:
  Catalog catalog_;
  IntegrityCatalog integrity_;
  // Mutable: refreshed by the (const) query path's "analyze" statement;
  // internally synchronized with a reader/writer lock.
  mutable StatsCatalog stats_;
};

}  // namespace tempus

#endif  // TEMPUS_EXEC_ENGINE_H_

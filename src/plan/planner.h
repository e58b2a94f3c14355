#ifndef TEMPUS_PLAN_PLANNER_H_
#define TEMPUS_PLAN_PLANNER_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "obs/trace.h"
#include "opt/optimizer.h"
#include "relation/catalog.h"
#include "plan/query.h"
#include "semantic/analyzer.h"
#include "semantic/integrity.h"
#include "stats/stats_catalog.h"
#include "stream/stream.h"

namespace tempus {

/// How aggressively the planner uses the paper's machinery; the benchmark
/// harness sweeps these to reproduce the conventional-vs-stream-vs-semantic
/// comparisons of Sections 3 and 5.
enum class PlanStyle {
  /// Stream temporal operators + semijoin recognition (Sections 4 and 5).
  kStream,
  /// "Conventionally optimized" (Figure 3(b)): selections pushed, hash
  /// join for equi-predicates, nested loop for inequality joins.
  kConventional,
  /// Nested-loop everything (no hash joins).
  kNaive,
};

struct PlannerOptions {
  PlanStyle style = PlanStyle::kStream;
  /// Inject integrity-catalog knowledge (chronological orderings) into the
  /// analysis — the Section 5 semantic optimization. Without it the
  /// analyzer still knows the intra-tuple constraints.
  bool enable_semantic = true;
  /// Drop query predicates implied by the rest of the constraint system.
  bool eliminate_redundant_predicates = true;
  /// Stream operators verify their inputs' promised sort orders at run
  /// time (small per-tuple cost; invaluable during development).
  bool verify_sorted_inputs = true;
  /// Unused: kept only because tempusbench/harness.cc assigns it.
  size_t threads = 1;
  /// Batch size for the batch-at-a-time sweep operators (docs/BATCH.md).
  /// kNoBatchOverride (the default) resolves to the TEMPUS_BATCH_SIZE
  /// environment variable (itself defaulting to 1024); 0 forces the
  /// tuple-at-a-time operators; K > 0 forces batches of K rows.
  static constexpr size_t kNoBatchOverride = static_cast<size_t>(-1);
  size_t batch_size = kNoBatchOverride;
  /// EXPLAIN ANALYZE: attach a TraceCollector to the plan so executing it
  /// records per-operator wall time; PlannedQuery::AnalyzeReport() then
  /// renders the annotated tree (docs/OBSERVABILITY.md). Off by default —
  /// untraced plans pay only a null-pointer test per Open()/Next().
  bool analyze = false;
  /// Cooperative cancellation: when non-null, the token is attached to
  /// every operator of the plan (alongside the trace hook) and polled on
  /// each Open()/Next(), so Cancel() or an armed deadline unwinds the
  /// whole pipeline with Status::Cancelled (docs/SERVER.md). Not owned;
  /// must outlive the planned query.
  CancellationToken* cancel = nullptr;
  /// Optimizer mode override; unset resolves the TEMPUS_OPTIMIZER
  /// environment variable (docs/OPTIMIZER.md). The ablation bench pins
  /// both modes in-process through this field.
  std::optional<OptimizerMode> optimizer;
};

/// The canonical temporal orders a scan of `entry` delivers without a
/// Sort: all four for an in-memory relation with an endpoint index (its
/// IndexScanStream, stream/index_scan.h), else the one its storage order
/// satisfies, if any (a spilled relation declares ValidFrom^). This is the
/// planner's one order-metadata path; `\tables` and the server's stats
/// endpoint report it too.
std::vector<TemporalSortOrder> ProvidedOrders(const Catalog::Entry& entry);

/// An executable plan: a stream-processor network plus diagnostics.
struct PlannedQuery {
  std::unique_ptr<TupleStream> root;
  std::string explain;
  SemanticAnalysis analysis;
  std::string into;
  /// Mode the plan was produced under ("cost-based" / "heuristic").
  std::string optimizer_mode;
  /// The optimizer's "cost model: ..." decision notes, one per choice it
  /// made (also embedded in `explain`); the server surfaces these in its
  /// stats JSON.
  std::vector<std::string> rationale;
  /// Present iff planned with options.analyze; filled in by Execute().
  std::unique_ptr<TraceCollector> trace;
  /// Effective plan-level batch size (options.batch_size resolved through
  /// TEMPUS_BATCH_SIZE). Execute() drains the root through NextBatch()
  /// when > 0, so batch-native operators — including the vectorized
  /// expression kernels in filters/projections — run columnar even when
  /// no batch consumer sits above them; 0 drains tuple-at-a-time.
  size_t batch_size = 0;

  /// Runs the plan to completion, materializing the result relation.
  Result<TemporalRelation> Execute();

  /// The EXPLAIN ANALYZE view: per-node labels, runtime counters, GC
  /// accounting, worker attribution, and wall time. Call after Execute();
  /// requires options.analyze (otherwise explains how to enable it).
  std::string AnalyzeReport() const;

  /// The plan tree (with spans when analyze was on) as single-line JSON.
  std::string TraceJson() const;
};

/// Rule-based planner for conjunctive temporal queries. Capabilities:
///   - selections pushed below joins; contradiction => constant-empty plan
///   - two-variable queries: the pairwise Allen mask chooses among the
///     stream operators (sweep join, Contain-join, containment semijoins,
///     overlap semijoin, before join/semijoin, single-scan self-semijoins)
///     with sort enforcers inserted as needed
///   - the Superstar pattern (Section 5): equi-linked chronologically
///     ordered pair + interval variable => derived-gap Contained-semijoin
///   - general fallback: left-deep hash/nested-loop cascade
class Planner {
 public:
  /// No pointer is owned; `integrity` and `stats` may be null (a null
  /// `stats` plans from coarse per-relation scalars only).
  Planner(const Catalog* catalog, const IntegrityCatalog* integrity,
          const StatsCatalog* stats = nullptr)
      : catalog_(catalog), integrity_(integrity), stats_(stats) {}

  Result<PlannedQuery> Plan(const ConjunctiveQuery& query,
                            const PlannerOptions& options = {}) const;

 private:
  const Catalog* catalog_;
  const IntegrityCatalog* integrity_;
  const StatsCatalog* stats_;
};

}  // namespace tempus

#endif  // TEMPUS_PLAN_PLANNER_H_

#ifndef TEMPUS_OPT_OPTIMIZER_H_
#define TEMPUS_OPT_OPTIMIZER_H_

#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "join/join_common.h"
#include "opt/cost_model.h"
#include "stats/stats_catalog.h"

namespace tempus {

/// Whether the planner runs the cost-based optimizer or the original
/// heuristics. Resolved from TEMPUS_OPTIMIZER unless PlannerOptions pins
/// it; scripts/check.sh re-runs tier-1 with TEMPUS_OPTIMIZER=off so both
/// paths stay green.
enum class OptimizerMode {
  kCostBased,  ///< Statistics-driven enumeration (the default).
  kHeuristic,  ///< The pre-optimizer rules (TEMPUS_OPTIMIZER=off).
};

/// TEMPUS_OPTIMIZER: "off" / "0" / "false" (case-insensitive) selects
/// kHeuristic; anything else (including unset) selects kCostBased.
OptimizerMode OptimizerModeFromEnv();

const char* OptimizerModeName(OptimizerMode mode);

/// The contain-join right-order decision (Table 1 (a) vs (b)), with the
/// sort-vs-reuse tradeoff priced in.
struct OrderChoice {
  TemporalSortOrder right_order = kByValidFromAsc;
  bool reused_order = false;   ///< Right input's existing order was kept.
  double workspace = 0.0;      ///< Chosen alternative's workspace estimate.
  std::string rationale;       ///< "cost model: ..." note for EXPLAIN.
};

/// A left-deep join order for the generic cascade, chosen by dynamic
/// programming over variable subsets.
struct CascadeOrder {
  std::vector<size_t> order;   ///< Variable indices, first-scanned first.
  double est_rows = 0.0;       ///< Final estimated cardinality.
  std::string rationale;
};

/// The cost-based optimizer consulted by the planner (docs/OPTIMIZER.md).
/// Stateless apart from its mode and the stats catalog it reads; safe to
/// construct per plan.
class Optimizer {
 public:
  Optimizer(OptimizerMode mode, const StatsCatalog* stats_catalog)
      : mode_(mode), stats_catalog_(stats_catalog) {}

  OptimizerMode mode() const { return mode_; }
  bool cost_based() const { return mode_ == OptimizerMode::kCostBased; }

  /// Best available statistics for relation `name`, whose registered
  /// scalars are `registered`: the analyzed IntervalStats when the stats
  /// catalog has them for a relation of the same tuple count, else coarse
  /// statistics from `registered` (so histograms left stale by a replace
  /// are ignored). Only a cost-based optimizer returns detailed stats.
  IntervalStats StatsFor(const std::string& name,
                         const RelationStats& registered) const;

  /// Chooses the contain-join right order by total cost: workspace of the
  /// Table 1 (a)/(b) alternative plus the enforcer-sort cost it induces,
  /// zero for the orders in `right_free` (those the right input delivers
  /// without a Sort: its existing order, or any order an index scan of a
  /// stored relation provides). In heuristic mode this reproduces the
  /// original rule: reuse the one free interesting order, else compare
  /// workspace alone.
  OrderChoice ChooseContainJoinOrder(
      const IntervalStats& x, const IntervalStats& y,
      const std::vector<TemporalSortOrder>& right_free) const;

  /// Left-deep join-order enumeration for the generic cascade: exact DP
  /// over variable subsets (Selinger-style, minimizing the sum of
  /// estimated intermediate cardinalities plus hash-build workspace) up
  /// to `kMaxDpVars` variables, declaration order beyond. `base_rows[i]`
  /// is variable
  /// i's filtered base cardinality; `pair_selectivity(a, b)` the estimated
  /// selectivity of all predicates linking a and b (1.0 = cross product).
  CascadeOrder ChooseCascadeOrder(
      const std::vector<double>& base_rows,
      const std::function<double(size_t, size_t)>& pair_selectivity) const;

  /// Batch-vs-tuple path: returns the batch size to plan with, given the
  /// total estimated input cardinality and the default batch size. Tiny
  /// inputs take the tuple path (batch setup costs more than it saves).
  size_t ChooseBatchSize(double est_input_rows, size_t default_batch) const;

  static constexpr size_t kMaxDpVars = 12;
  /// Estimated input rows below which the tuple path beats batching.
  /// Halved when the vectorized expression kernels are on (docs/BATCH.md):
  /// columnar evaluation recoups per-batch setup sooner.
  static constexpr double kBatchRowThreshold = 64.0;

 private:
  const OptimizerMode mode_;
  const StatsCatalog* stats_catalog_;  ///< May be null (coarse stats only).
};

}  // namespace tempus

#endif  // TEMPUS_OPT_OPTIMIZER_H_

#include "opt/optimizer.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

#include "common/string_util.h"
#include "stream/kernel.h"

namespace tempus {

OptimizerMode OptimizerModeFromEnv() {
  const char* env = std::getenv("TEMPUS_OPTIMIZER");
  if (env == nullptr) return OptimizerMode::kCostBased;
  if (EqualsIgnoreCase(env, "off") || EqualsIgnoreCase(env, "0") ||
      EqualsIgnoreCase(env, "false")) {
    return OptimizerMode::kHeuristic;
  }
  return OptimizerMode::kCostBased;
}

const char* OptimizerModeName(OptimizerMode mode) {
  return mode == OptimizerMode::kCostBased ? "cost-based" : "heuristic";
}

IntervalStats Optimizer::StatsFor(const std::string& name,
                                  const RelationStats& registered) const {
  // Heuristic mode plans from coarse scalars only, so TEMPUS_OPTIMIZER=off
  // reproduces the pre-optimizer planner exactly even after `analyze`.
  if (cost_based() && stats_catalog_ != nullptr) {
    std::shared_ptr<const IntervalStats> stored =
        stats_catalog_->Lookup(name);
    if (stored != nullptr && stored->detailed &&
        stored->tuple_count == registered.tuple_count) {
      return *stored;
    }
  }
  return CoarseStats(registered);
}

OrderChoice Optimizer::ChooseContainJoinOrder(
    const IntervalStats& x, const IntervalStats& y,
    const std::vector<TemporalSortOrder>& right_free) const {
  const WorkspaceEstimate from_from = EstimateContainJoinFromFrom(x, y);
  const WorkspaceEstimate from_to = EstimateContainJoinFromTo(x, y);
  auto is_free = [&right_free](TemporalSortOrder order) {
    return std::find(right_free.begin(), right_free.end(), order) !=
           right_free.end();
  };
  const bool from_free = is_free(kByValidFromAsc);
  const bool to_free = is_free(kByValidToAsc);

  OrderChoice choice;
  if (!cost_based()) {
    // The original heuristic: reuse the one free interesting order
    // outright, else compare workspace alone.
    if (from_free != to_free) {
      choice.right_order = to_free ? kByValidToAsc : kByValidFromAsc;
      choice.reused_order = true;
      choice.workspace = to_free ? from_to.tuples : from_from.tuples;
      return choice;
    }
    choice.right_order = from_to.tuples < from_from.tuples ? kByValidToAsc
                                                           : kByValidFromAsc;
    choice.workspace = std::min(from_from.tuples, from_to.tuples);
    choice.rationale =
        StrFormat("cost model: ws(From^,From^)=%.1f vs ws(From^,To^)=%.1f",
                  from_from.tuples, from_to.tuples);
    return choice;
  }

  // Cost-based: total cost = workspace + the enforcer-sort cost the
  // alternative induces (zero when the right input delivers that
  // interesting order without a Sort).
  const double n_y = static_cast<double>(y.tuple_count);
  const double sort_from = from_free ? 0.0 : EstimateSortCost(n_y);
  const double sort_to = to_free ? 0.0 : EstimateSortCost(n_y);
  const double cost_from = from_from.tuples + sort_from;
  const double cost_to = from_to.tuples + sort_to;
  const bool pick_to = cost_to < cost_from;
  choice.right_order = pick_to ? kByValidToAsc : kByValidFromAsc;
  choice.reused_order = pick_to ? to_free : from_free;
  choice.workspace = pick_to ? from_to.tuples : from_from.tuples;
  choice.rationale = StrFormat(
      "cost model: (From^,From^) ws=%.1f sort=%.0f vs (From^,To^) ws=%.1f "
      "sort=%.0f -> %s%s",
      from_from.tuples, sort_from, from_to.tuples, sort_to,
      pick_to ? "(From^,To^)" : "(From^,From^)",
      choice.reused_order ? " [reused order]" : "");
  return choice;
}

CascadeOrder Optimizer::ChooseCascadeOrder(
    const std::vector<double>& base_rows,
    const std::function<double(size_t, size_t)>& pair_selectivity) const {
  const size_t n = base_rows.size();
  CascadeOrder result;
  result.order.resize(n);
  for (size_t i = 0; i < n; ++i) result.order[i] = i;
  if (n <= 1) {
    result.est_rows = n == 0 ? 0.0 : base_rows[0];
    return result;
  }

  // Estimated cardinality of joining `rows` with variable v, applying
  // every predicate between v and the members of `mask`.
  auto join_rows = [&](double rows, uint32_t mask, size_t v) {
    double out = rows * base_rows[v];
    for (size_t u = 0; u < n; ++u) {
      if ((mask & (1u << u)) != 0) out *= pair_selectivity(u, v);
    }
    return out;
  };

  if (!cost_based() || n > kMaxDpVars) {
    // Heuristic (and very-wide fallback): declaration order.
    double rows = base_rows[0];
    uint32_t mask = 1u;
    for (size_t k = 1; k < n; ++k) {
      rows = join_rows(rows, mask, k);
      mask |= 1u << k;
    }
    result.est_rows = rows;
    return result;
  }

  // Exact left-deep DP over subsets: dp[S] = min over v in S of
  // dp[S\{v}] + rows(S) + |v|, minimizing total intermediate cardinality
  // plus build-side workspace. The chain's first variable streams through
  // the probe side and is never materialized (singletons cost 0); every
  // later variable is built into a hash table, so its base cardinality is
  // workspace the plan pays — that term breaks the ties cardinality alone
  // leaves between (x,y) and (y,x) as the opening pair.
  const uint32_t full = (1u << n) - 1;
  const double inf = std::numeric_limits<double>::infinity();
  std::vector<double> dp_cost(full + 1, inf);
  std::vector<double> dp_rows(full + 1, 0.0);
  std::vector<int> dp_last(full + 1, -1);
  for (size_t v = 0; v < n; ++v) {
    const uint32_t s = 1u << v;
    dp_cost[s] = 0.0;
    dp_rows[s] = base_rows[v];
    dp_last[s] = static_cast<int>(v);
  }
  for (uint32_t s = 1; s <= full; ++s) {
    if ((s & (s - 1)) == 0) continue;  // Singletons seeded above.
    for (size_t v = 0; v < n; ++v) {
      const uint32_t bit = 1u << v;
      if ((s & bit) == 0) continue;
      const uint32_t rest = s & ~bit;
      if (dp_cost[rest] == inf) continue;
      const double rows = join_rows(dp_rows[rest], rest, v);
      const double cost = dp_cost[rest] + rows + base_rows[v];
      if (cost < dp_cost[s]) {
        dp_cost[s] = cost;
        dp_rows[s] = rows;
        dp_last[s] = static_cast<int>(v);
      }
    }
  }

  std::vector<size_t> order;
  uint32_t s = full;
  while (s != 0 && dp_last[s] >= 0) {
    const size_t v = static_cast<size_t>(dp_last[s]);
    order.push_back(v);
    s &= ~(1u << v);
  }
  std::reverse(order.begin(), order.end());
  if (order.size() != n) return result;  // Defensive: keep declaration order.
  const bool reordered = order != result.order;
  result.order = std::move(order);
  result.est_rows = dp_rows[full];
  if (reordered) {
    std::vector<std::string> names;
    for (size_t v : result.order) names.push_back(std::to_string(v));
    result.rationale = StrFormat(
        "cost model: cascade DP order [%s], est %.0f intermediate rows + "
        "build ws",
        Join(names, " ").c_str(), dp_cost[full]);
  }
  return result;
}

size_t Optimizer::ChooseBatchSize(double est_input_rows,
                                  size_t default_batch) const {
  if (!cost_based()) return default_batch;
  if (default_batch == 0) return 0;  // Tuple path pinned by the caller.
  // The vectorized expression kernels amortize per-batch setup over
  // branch-free columnar loops, so batching starts paying off at half the
  // input size it needs on the interpreted path.
  const double threshold = VectorKernelsEnabled() ? kBatchRowThreshold / 2
                                                  : kBatchRowThreshold;
  return est_input_rows < threshold ? 0 : default_batch;
}

}  // namespace tempus

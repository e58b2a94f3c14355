#ifndef TEMPUS_STATS_INTERVAL_STATS_H_
#define TEMPUS_STATS_INTERVAL_STATS_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "relation/endpoint_index.h"
#include "relation/temporal_relation.h"

namespace tempus {

/// Interval statistics for the cost-based optimizer (docs/OPTIMIZER.md).
///
/// The paper's Section 6 names this as the missing piece: "in addition to
/// conventional statistical information ... estimating the amount of local
/// workspace becomes necessary". The scalar `RelationStats` gave two means;
/// this subsystem adds the distributions those means summarize — equi-depth
/// histograms over the ValidFrom/ValidTo endpoints, a duration
/// distribution, and a live-tuple profile sampled along the timeline — so
/// the Table 1–3 state characterizations can be instantiated per plan node
/// instead of per relation.

/// Equi-depth histogram over a single numeric column (TimePoint-valued).
/// `bounds` has buckets()+1 entries; bucket i covers [bounds[i],
/// bounds[i+1]) except the last, which is closed on the right. Equal depth
/// means each bucket holds ~total/buckets values, so selectivity estimates
/// are uniformly accurate even for skewed endpoint distributions.
struct Histogram {
  std::vector<TimePoint> bounds;
  std::vector<uint64_t> counts;
  uint64_t total = 0;

  size_t buckets() const { return counts.size(); }
  bool empty() const { return total == 0; }

  /// Estimated fraction of values strictly below `t`, in [0, 1]. Linear
  /// interpolation inside the containing bucket.
  double FractionBelow(TimePoint t) const;

  /// Estimated fraction of values in [lo, hi).
  double FractionBetween(TimePoint lo, TimePoint hi) const;
};

/// Builds an equi-depth histogram with at most `buckets` buckets;
/// duplicate-heavy inputs may yield fewer (bucket bounds never repeat).
Histogram BuildEquiDepthHistogram(std::vector<TimePoint> values,
                                  size_t buckets);

/// Live-tuple profile: the number of lifespans covering the timeline,
/// sampled at up to a fixed number of sweep event times. This is the
/// paper's "X tuples whose lifespan span t" state bound as a function of
/// t rather than a single max.
struct ConcurrencyProfile {
  std::vector<TimePoint> at;    ///< Sample times, ascending.
  std::vector<uint64_t> live;   ///< Live count at/after each sample time.
  double mean_live = 0.0;       ///< Time-weighted mean concurrency.
  uint64_t max_live = 0;

  bool empty() const { return at.empty(); }

  /// Live count at time `t` (step interpolation; 0 before the first
  /// sample).
  uint64_t LiveAt(TimePoint t) const;
};

/// Full statistics stored in the catalog beside a relation and refreshed
/// by the `analyze <relation>` TQL statement. The scalar fields mirror
/// `RelationStats`; `detailed` distinguishes analyze-built statistics
/// (histograms/profile populated) from the coarse fallback derived from
/// scalars alone.
struct IntervalStats {
  uint64_t tuple_count = 0;
  TimePoint min_valid_from = kMaxTime;
  TimePoint max_valid_to = kMinTime;
  double mean_duration = 0.0;
  TimePoint max_duration = 0;
  double mean_interarrival = 0.0;
  uint64_t max_concurrency = 0;
  bool detailed = false;

  Histogram starts;      ///< ValidFrom endpoints.
  Histogram ends;        ///< ValidTo endpoints.
  Histogram durations;   ///< ValidTo - ValidFrom.
  ConcurrencyProfile profile;

  /// The scalar view consumed by the existing estimators.
  RelationStats Scalars() const;

  /// Single-line JSON, stable key order; round-trips through FromJson.
  std::string ToJson() const;
  static Result<IntervalStats> FromJson(const std::string& json);
};

/// Builds full statistics for `relation` from `scalars` and `index`, the
/// RelationStats and EndpointIndex built when it was registered
/// (Catalog::Entry): equi-depth endpoint histograms and the sweep-sampled
/// concurrency profile are read off the index's permutations, and only
/// the duration histogram sorts. `buckets` bounds each histogram. Carries
/// the "stats.build" fault point (docs/TESTING.md). Requires a temporal
/// schema.
Result<IntervalStats> BuildIntervalStats(const TemporalRelation& relation,
                                         const RelationStats& scalars,
                                         const EndpointIndex& index,
                                         size_t buckets = 32);

/// Coarse statistics from scalars only (no histograms); used when a
/// relation has never been analyzed. `detailed` is false.
IntervalStats CoarseStats(const RelationStats& scalars);

}  // namespace tempus

#endif  // TEMPUS_STATS_INTERVAL_STATS_H_

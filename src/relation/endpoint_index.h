#ifndef TEMPUS_RELATION_ENDPOINT_INDEX_H_
#define TEMPUS_RELATION_ENDPOINT_INDEX_H_

#include <cstdint>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "relation/sort_spec.h"
#include "relation/temporal_relation.h"

namespace tempus {

/// A temporal relation's lifespan endpoints, one entry per row in storage
/// order: the one extraction pass that the endpoint index, the
/// registration statistics and `analyze` share.
struct EndpointColumns {
  std::vector<TimePoint> starts;  ///< ValidFrom of row i.
  std::vector<TimePoint> ends;    ///< ValidTo of row i.

  /// Reads the endpoints of every row; the schema must have a lifespan.
  static EndpointColumns Of(const TemporalRelation& relation);

  size_t size() const { return starts.size(); }
};

/// The endpoint index of an immutable temporal relation (Piatov et al.,
/// "Cache-Efficient Sweeping-Based Interval Joins"; ROADMAP item 5): two
/// row-id permutations, 4 bytes per row each.
///
///   by_start  rows ordered by (ValidFrom, ValidTo, row)
///   by_end    rows ordered by (ValidTo, ValidFrom, row)
///
/// Walking one forward gives the ascending canonical order on that
/// endpoint (SortSpec::ByLifespan) with ties in storage order, exactly as
/// a stable sort of the relation leaves them. The catalog builds the
/// index once, at registration, so a sweep reads its input in order
/// without a Sort enforcer (docs/STORAGE.md). Row ids are 32-bit.
class EndpointIndex {
 public:
  EndpointIndex() = default;

  /// Builds both permutations with stable least-significant-digit radix
  /// sorts over the endpoint values (one byte per pass, and no pass for a
  /// byte every value shares), so the cost is linear in the row count.
  static EndpointIndex Build(const EndpointColumns& columns);

  const std::vector<uint32_t>& by_start() const { return by_start_; }
  const std::vector<uint32_t>& by_end() const { return by_end_; }
  /// The permutation whose forward walk is ascending order on `field`.
  const std::vector<uint32_t>& by(TemporalField field) const {
    return field == TemporalField::kValidFrom ? by_start_ : by_end_;
  }

  /// Heap bytes held by the two permutations (8 per row).
  size_t bytes() const {
    return (by_start_.size() + by_end_.size()) * sizeof(uint32_t);
  }

 private:
  std::vector<uint32_t> by_start_;
  std::vector<uint32_t> by_end_;
};

/// One registration pass over a temporal relation: its index, and the
/// statistics read off it by one linear pass over the rows (extremes,
/// durations) and one merge of the two permutations (interarrival mean,
/// maximum concurrency), with no sort of their own.
struct IndexedStats {
  EndpointIndex index;
  RelationStats stats;
};

/// Runs the registration pass; FailedPrecondition for a schema without a
/// lifespan.
Result<IndexedStats> IndexEndpoints(const TemporalRelation& relation);

}  // namespace tempus

#endif  // TEMPUS_RELATION_ENDPOINT_INDEX_H_

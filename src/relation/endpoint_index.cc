#include "relation/endpoint_index.h"

#include <algorithm>
#include <array>

namespace tempus {
namespace {

/// Radix keys for one endpoint column: each value's unsigned distance from
/// the column minimum, so order is kept and a narrow time range leaves the
/// high bytes zero.
std::vector<uint64_t> RadixKeys(const std::vector<TimePoint>& values) {
  std::vector<uint64_t> keys(values.size());
  if (values.empty()) return keys;
  const uint64_t min = static_cast<uint64_t>(
      *std::min_element(values.begin(), values.end()));
  for (size_t i = 0; i < values.size(); ++i) {
    keys[i] = static_cast<uint64_t>(values[i]) - min;
  }
  return keys;
}

/// Stable LSD radix sort of the row ids in `perm` by keys[row], one byte
/// per pass. A byte that no key sets costs no pass.
void StableSortByKey(const std::vector<uint64_t>& keys,
                     std::vector<uint32_t>* perm,
                     std::vector<uint32_t>* scratch) {
  uint64_t set_bits = 0;
  for (uint64_t key : keys) set_bits |= key;
  scratch->resize(perm->size());
  for (unsigned shift = 0; shift < 64; shift += 8) {
    if (((set_bits >> shift) & 0xff) == 0) continue;
    std::array<size_t, 256> offset{};
    for (uint32_t row : *perm) ++offset[(keys[row] >> shift) & 0xff];
    size_t sum = 0;
    for (size_t& slot : offset) {
      const size_t count = slot;
      slot = sum;
      sum += count;
    }
    for (uint32_t row : *perm) {
      (*scratch)[offset[(keys[row] >> shift) & 0xff]++] = row;
    }
    perm->swap(*scratch);
  }
}

/// Row ids ordered by (primary, secondary, row).
std::vector<uint32_t> Permutation(const std::vector<uint64_t>& primary,
                                  const std::vector<uint64_t>& secondary,
                                  std::vector<uint32_t>* scratch) {
  std::vector<uint32_t> perm(primary.size());
  for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
  StableSortByKey(secondary, &perm, scratch);
  StableSortByKey(primary, &perm, scratch);
  return perm;
}

RelationStats StatsFromIndex(const EndpointColumns& columns,
                             const EndpointIndex& index) {
  RelationStats stats;
  const size_t n = columns.size();
  stats.tuple_count = n;
  if (n == 0) return stats;
  const std::vector<TimePoint>& starts = columns.starts;
  const std::vector<TimePoint>& ends = columns.ends;
  const std::vector<uint32_t>& by_start = index.by_start();
  const std::vector<uint32_t>& by_end = index.by_end();

  double duration_sum = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const TimePoint duration = ends[i] - starts[i];
    duration_sum += static_cast<double>(duration);
    stats.max_duration = std::max(stats.max_duration, duration);
  }
  stats.mean_duration = duration_sum / static_cast<double>(n);
  stats.min_valid_from = starts[by_start.front()];
  stats.max_valid_to = ends[by_end.back()];
  if (n > 1) {
    stats.mean_interarrival =
        static_cast<double>(starts[by_start.back()] - stats.min_valid_from) /
        static_cast<double>(n - 1);
  }

  // Sweep the endpoints in time order. An end goes before a start at the
  // same time point: [a,t) and [t,b) do not overlap under half-open
  // semantics.
  size_t live = 0;
  size_t e = 0;
  for (size_t s = 0; s < n; ++s) {
    const TimePoint start = starts[by_start[s]];
    while (ends[by_end[e]] <= start) {
      --live;
      ++e;
    }
    stats.max_concurrency = std::max(stats.max_concurrency, ++live);
  }
  return stats;
}

}  // namespace

EndpointColumns EndpointColumns::Of(const TemporalRelation& relation) {
  EndpointColumns columns;
  const size_t n = relation.size();
  columns.starts.resize(n);
  columns.ends.resize(n);
  for (size_t i = 0; i < n; ++i) {
    const Interval span = relation.LifespanOf(i);
    columns.starts[i] = span.start;
    columns.ends[i] = span.end;
  }
  return columns;
}

EndpointIndex EndpointIndex::Build(const EndpointColumns& columns) {
  const std::vector<uint64_t> start_keys = RadixKeys(columns.starts);
  const std::vector<uint64_t> end_keys = RadixKeys(columns.ends);
  std::vector<uint32_t> scratch;
  EndpointIndex index;
  index.by_start_ = Permutation(start_keys, end_keys, &scratch);
  index.by_end_ = Permutation(end_keys, start_keys, &scratch);
  return index;
}

Result<IndexedStats> IndexEndpoints(const TemporalRelation& relation) {
  if (!relation.schema().has_lifespan()) {
    return Status::FailedPrecondition("stats require a temporal schema: " +
                                      relation.schema().ToString());
  }
  const EndpointColumns columns = EndpointColumns::Of(relation);
  IndexedStats out;
  out.index = EndpointIndex::Build(columns);
  out.stats = StatsFromIndex(columns, out.index);
  return out;
}

}  // namespace tempus

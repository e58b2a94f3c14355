#ifndef TEMPUS_OBS_TRACE_H_
#define TEMPUS_OBS_TRACE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

namespace tempus {

/// One per-operator span recorded during an EXPLAIN ANALYZE run: wall time
/// spent inside Open()/Next() plus call counts, with a parent link so the
/// spans form the same tree as the plan.
struct TraceSpan {
  int id = -1;
  int parent = -1;  // -1 = plan root.
  std::string label;
  uint64_t open_ns = 0;
  uint64_t next_ns = 0;
  uint64_t open_calls = 0;
  uint64_t next_calls = 0;

  uint64_t total_ns() const { return open_ns + next_ns; }
};

/// Collects TraceSpans for one plan execution. Header-only so that
/// TupleStream's inline Open()/Next() wrappers can record into it without
/// tempus_stream depending on the tempus_obs archive.
///
/// Not thread-safe by design: spans are registered and updated only by the
/// thread driving the plan, so the Next() hot path takes no locks.
class TraceCollector {
 public:
  /// Registers a span and returns its id.
  int AddSpan(std::string label, int parent = -1) {
    TraceSpan span;
    span.id = static_cast<int>(spans_.size());
    span.parent = parent;
    span.label = std::move(label);
    spans_.push_back(std::move(span));
    return spans_.back().id;
  }

  void RecordOpen(int id, uint64_t ns) {
    spans_[id].open_ns += ns;
    ++spans_[id].open_calls;
  }
  void RecordNext(int id, uint64_t ns) {
    spans_[id].next_ns += ns;
    ++spans_[id].next_calls;
  }

  const std::vector<TraceSpan>& spans() const { return spans_; }
  const TraceSpan& span(int id) const { return spans_[id]; }
  size_t size() const { return spans_.size(); }
  bool empty() const { return spans_.empty(); }

  /// Forgets recorded spans (ids remain valid for re-registration).
  void Clear() { spans_.clear(); }

 private:
  std::vector<TraceSpan> spans_;
};

}  // namespace tempus

#endif  // TEMPUS_OBS_TRACE_H_

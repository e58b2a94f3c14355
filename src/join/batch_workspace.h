#ifndef TEMPUS_JOIN_BATCH_WORKSPACE_H_
#define TEMPUS_JOIN_BATCH_WORKSPACE_H_

#include <cstddef>
#include <cstdint>
#include <deque>
#include <limits>
#include <utility>
#include <vector>

#include "common/interval.h"
#include "relation/tuple.h"

namespace tempus {

/// Workspace structures for the batch sweep operators (docs/BATCH.md), in
/// the cache-dense layouts of Piatov et al.: endpoint columns scanned
/// contiguously, payload rows touched only on match.
///
/// The owning operator calls AddWorkspace/SubWorkspace around
/// Insert/EraseDead, so the GC ledger balances, and an entry is removed
/// exactly when the paper's garbage-collection rule makes it dead, so the
/// Table 1-3 workspace bounds instantiate exactly.

/// Append-ordered sweep state with struct-of-arrays endpoints and stable
/// compaction. The min-endpoint trackers let the owner skip a GC sweep
/// entirely when no entry can be dead under the current bound — the sweep
/// then costs O(1) instead of O(live) without ever holding a dead entry
/// past the point the GC rule discards it.
class GaplessWorkspace {
 public:
  size_t size() const { return ptrs_.size(); }
  bool empty() const { return ptrs_.empty(); }

  TimePoint start(size_t i) const { return starts_[i]; }
  TimePoint end(size_t i) const { return ends_[i]; }
  const Tuple& tuple(size_t i) const { return *ptrs_[i]; }
  const TimePoint* starts_data() const { return starts_.data(); }
  const TimePoint* ends_data() const { return ends_.data(); }

  /// Smallest endpoint among live entries (max TimePoint when empty), for
  /// the owner's nothing-can-be-dead test.
  TimePoint min_start() const { return min_start_; }
  TimePoint min_end() const { return min_end_; }

  /// Retains a borrowed row: the pointed-to storage must outlive the entry
  /// (a kStable batch row owned by the producing stream qualifies). The
  /// hot retention path for stable sources — no copy at all.
  void InsertStable(const Tuple* tuple, Interval span) {
    PushEntry(tuple, nullptr, span);
  }

  /// Retains a copy of `tuple` in a recycled owned slot: steady-state the
  /// copy reuses the slot's value storage, so retention costs element
  /// copies but no allocation.
  void InsertOwnedCopy(const Tuple& tuple, Interval span) {
    Tuple* slot = AcquireSlot();
    *slot = tuple;
    PushEntry(slot, slot, span);
  }

  /// Moves `tuple` into a recycled owned slot.
  void Insert(Tuple tuple, Interval span) {
    Tuple* slot = AcquireSlot();
    *slot = std::move(tuple);
    PushEntry(slot, slot, span);
  }

  /// Removes every entry for which `dead(start, end)` holds, preserving
  /// the insertion order of survivors (so probe emission order is
  /// insertion order); owned slots of the dead return
  /// to the recycling pool. Returns the number removed and recomputes the
  /// min trackers.
  template <typename Dead>
  size_t EraseDead(Dead&& dead) {
    const size_t n = ptrs_.size();
    size_t kept = 0;
    TimePoint min_start = std::numeric_limits<TimePoint>::max();
    TimePoint min_end = std::numeric_limits<TimePoint>::max();
    for (size_t i = 0; i < n; ++i) {
      if (dead(starts_[i], ends_[i])) {
        if (slots_[i] != nullptr) free_.push_back(slots_[i]);
        continue;
      }
      if (kept != i) {
        starts_[kept] = starts_[i];
        ends_[kept] = ends_[i];
        ptrs_[kept] = ptrs_[i];
        slots_[kept] = slots_[i];
      }
      if (starts_[kept] < min_start) min_start = starts_[kept];
      if (ends_[kept] < min_end) min_end = ends_[kept];
      ++kept;
    }
    starts_.resize(kept);
    ends_.resize(kept);
    ptrs_.resize(kept);
    slots_.resize(kept);
    min_start_ = min_start;
    min_end_ = min_end;
    return n - kept;
  }

  void Clear() {
    for (Tuple* slot : slots_) {
      if (slot != nullptr) free_.push_back(slot);
    }
    starts_.clear();
    ends_.clear();
    ptrs_.clear();
    slots_.clear();
    min_start_ = std::numeric_limits<TimePoint>::max();
    min_end_ = std::numeric_limits<TimePoint>::max();
  }

 private:
  // Owned slots live in a deque (entry pointers stay valid as it grows)
  // and recycle through free_; the pool never exceeds the peak number of
  // concurrently-live owned entries, i.e. the Table 1-3 workspace bound.
  Tuple* AcquireSlot() {
    if (!free_.empty()) {
      Tuple* slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return &slab_.emplace_back();
  }

  void PushEntry(const Tuple* tuple, Tuple* slot, Interval span) {
    starts_.push_back(span.start);
    ends_.push_back(span.end);
    ptrs_.push_back(tuple);
    slots_.push_back(slot);
    if (span.start < min_start_) min_start_ = span.start;
    if (span.end < min_end_) min_end_ = span.end;
  }

  std::vector<TimePoint> starts_;
  std::vector<TimePoint> ends_;
  std::vector<const Tuple*> ptrs_;
  // Per-entry owned slot, nullptr for borrowed (stable) rows.
  std::vector<Tuple*> slots_;
  std::deque<Tuple> slab_;
  std::vector<Tuple*> free_;
  TimePoint min_start_ = std::numeric_limits<TimePoint>::max();
  TimePoint min_end_ = std::numeric_limits<TimePoint>::max();
};

/// FIFO pending queue with lazy deletion: pops advance a head index and
/// the dead prefix is compacted away amortized O(1), so the emit-in-input-
/// order sweeps (containment semijoin, self contain-semijoin) keep their
/// order guarantee without a node-based deque. Entries carry a matched
/// flag (witness marking) next to the endpoint columns.
class LazyDeletionQueue {
 public:
  size_t size() const { return ptrs_.size() - head_; }
  bool empty() const { return head_ == ptrs_.size(); }

  TimePoint start_at(size_t i) const { return starts_[head_ + i]; }
  TimePoint end_at(size_t i) const { return ends_[head_ + i]; }
  bool matched_at(size_t i) const { return matched_[head_ + i] != 0; }
  void set_matched(size_t i) { matched_[head_ + i] = 1; }
  const Tuple& tuple_at(size_t i) const { return *ptrs_[head_ + i]; }
  /// True iff the entry borrows stream-owned storage (retained and
  /// emittable zero-copy); false for entries copied into an owned slot.
  bool stable_at(size_t i) const { return slots_[head_ + i] == nullptr; }

  /// Raw endpoint/flag columns of the live window [0, size()), for the
  /// owner's witness-marking scan. Invalidated by any mutating call.
  const TimePoint* starts_data() const { return starts_.data() + head_; }
  const TimePoint* ends_data() const { return ends_.data() + head_; }
  uint8_t* matched_data() { return matched_.data() + head_; }

  /// Enqueues a borrowed row: the storage must outlive the entry (a
  /// kStable batch row owned by the producing stream qualifies). No copy.
  void PushBackStable(const Tuple* tuple, Interval span,
                      bool matched = false) {
    PushEntry(tuple, nullptr, span, matched);
  }

  /// Enqueues a copy of `tuple` in a recycled owned slot (allocation-free
  /// steady state).
  void PushBackCopy(const Tuple& tuple, Interval span, bool matched = false) {
    Tuple* slot = AcquireSlot();
    slot->AssignFrom(tuple);
    PushEntry(slot, slot, span, matched);
  }

  /// Moves `tuple` into a recycled owned slot.
  void PushBack(Tuple tuple, Interval span, bool matched = false) {
    Tuple* slot = AcquireSlot();
    *slot = std::move(tuple);
    PushEntry(slot, slot, span, matched);
  }

  void PopFront() {
    if (Tuple* slot = slots_[head_]) free_.push_back(slot);
    ++head_;
    // Amortized compaction: reclaim the dead prefix once it dominates.
    if (head_ >= 32 && head_ * 2 >= ptrs_.size()) {
      starts_.erase(starts_.begin(), starts_.begin() + head_);
      ends_.erase(ends_.begin(), ends_.begin() + head_);
      matched_.erase(matched_.begin(), matched_.begin() + head_);
      ptrs_.erase(ptrs_.begin(), ptrs_.begin() + head_);
      slots_.erase(slots_.begin(), slots_.begin() + head_);
      head_ = 0;
    }
  }

  void Clear() {
    for (size_t i = head_; i < slots_.size(); ++i) {
      if (slots_[i] != nullptr) free_.push_back(slots_[i]);
    }
    starts_.clear();
    ends_.clear();
    matched_.clear();
    ptrs_.clear();
    slots_.clear();
    head_ = 0;
  }

 private:
  // Same owned-slot recycling as GaplessWorkspace: the pool never exceeds
  // the peak live owned entries, and entry pointers into the deque slab
  // stay valid as it grows.
  Tuple* AcquireSlot() {
    if (!free_.empty()) {
      Tuple* slot = free_.back();
      free_.pop_back();
      return slot;
    }
    return &slab_.emplace_back();
  }

  void PushEntry(const Tuple* tuple, Tuple* slot, Interval span,
                 bool matched) {
    starts_.push_back(span.start);
    ends_.push_back(span.end);
    matched_.push_back(matched ? 1 : 0);
    ptrs_.push_back(tuple);
    slots_.push_back(slot);
  }

  std::vector<TimePoint> starts_;
  std::vector<TimePoint> ends_;
  std::vector<uint8_t> matched_;
  std::vector<const Tuple*> ptrs_;
  // Per-entry owned slot, nullptr for borrowed (stable) rows.
  std::vector<Tuple*> slots_;
  std::deque<Tuple> slab_;
  std::vector<Tuple*> free_;
  size_t head_ = 0;
};

}  // namespace tempus

#endif  // TEMPUS_JOIN_BATCH_WORKSPACE_H_

#ifndef TEMPUS_STORAGE_PAGED_RELATION_H_
#define TEMPUS_STORAGE_PAGED_RELATION_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "buffer/buffer_manager.h"
#include "buffer/page_file.h"
#include "common/result.h"
#include "relation/sort_spec.h"
#include "relation/temporal_relation.h"

namespace tempus {

/// Frame size used by disk-backed relations and spill files. Pages are
/// padded to whole frames; the BufferManager budget is denominated in
/// frames of this size (docs/STORAGE.md).
inline constexpr size_t kStorageFrameBytes = 4096;

/// Counts page-granular disk transfers — the paper's third tradeoff axis
/// (Section 4.1, "multiple passes over input streams (i.e. the number of
/// disk accesses)"). In-memory relations charge simulated transfers here;
/// disk-backed ones charge the same logical counts alongside the buffer
/// pool's real byte traffic, so the two modes stay comparable.
///
/// Thread-safe: scans on different threads may share one counter, so
/// counts use relaxed atomics (ordering is irrelevant, only totals matter).
class PageIoCounter {
 public:
  void CountRead(uint64_t pages = 1) {
    reads_.fetch_add(pages, std::memory_order_relaxed);
  }
  void CountWrite(uint64_t pages = 1) {
    writes_.fetch_add(pages, std::memory_order_relaxed);
  }
  uint64_t reads() const { return reads_.load(std::memory_order_relaxed); }
  uint64_t writes() const { return writes_.load(std::memory_order_relaxed); }
  uint64_t total() const { return reads() + writes(); }
  void Reset() {
    reads_.store(0, std::memory_order_relaxed);
    writes_.store(0, std::memory_order_relaxed);
  }

 private:
  std::atomic<uint64_t> reads_{0};
  std::atomic<uint64_t> writes_{0};
};

/// A relation stored as fixed-capacity pages of tuples, in one of two
/// modes (docs/STORAGE.md):
///   - in-memory: every page resident in a std::vector (the original
///     simulated-I/O mode; cheap, used by small sorts and tests);
///   - disk-backed: pages codec-encoded into a temporary PageFile and
///     materialized lazily through a BufferManager, so the resident
///     footprint is bounded by the pool's frame budget, not the data.
/// Copies share the underlying page file (shared_ptr), so a disk-backed
/// relation can be registered in a catalog and scanned concurrently.
class PagedRelation {
 public:
  /// In-memory: splits `relation` into pages of `tuples_per_page` (> 0).
  static Result<PagedRelation> FromRelation(const TemporalRelation& relation,
                                            size_t tuples_per_page);

  /// Disk-backed: encodes `relation` into a fresh temporary page file,
  /// carrying over its name, schema, declared order, and (pre-computed)
  /// stats so the planner can cost it without touching the data. `pool`
  /// must outlive the relation; `io` (optional) is charged one write per
  /// page spilled.
  static Result<PagedRelation> SpillToDisk(const TemporalRelation& relation,
                                           size_t tuples_per_page,
                                           BufferManager* pool,
                                           PageIoCounter* io = nullptr);

  /// Empty disk-backed spill target (external sort runs).
  static Result<PagedRelation> CreateDiskBacked(std::string name,
                                                Schema schema,
                                                size_t tuples_per_page,
                                                BufferManager* pool);

  /// Builds an empty in-memory paged relation (used as a spill target).
  PagedRelation(std::string name, Schema schema, size_t tuples_per_page);

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }
  size_t tuples_per_page() const { return tuples_per_page_; }
  size_t page_count() const;
  size_t tuple_count() const { return tuple_count_; }
  size_t size() const { return tuple_count_; }

  bool disk_backed() const { return file_ != nullptr; }
  BufferManager* pool() const { return pool_; }
  const std::shared_ptr<PageFile>& file() const { return file_; }

  /// Direct page access — in-memory mode only (disk-backed pages live in
  /// the pool; use PinPage). The unit of the simulated-I/O tests.
  const std::vector<Tuple>& page(size_t i) const { return pages_[i]; }

  /// A borrowed (in-memory) or pool-pinned (disk) view of one page.
  /// While live, the page cannot be evicted; release promptly.
  class PinnedPage {
   public:
    PinnedPage() = default;
    PinnedPage(PinnedPage&&) = default;
    PinnedPage& operator=(PinnedPage&&) = default;

    bool valid() const { return borrowed_ != nullptr || handle_.valid(); }
    /// True when this pin is a borrow of in-memory pages (stable for the
    /// relation's lifetime) rather than a pool frame pin.
    bool borrowed() const { return borrowed_ != nullptr; }
    const std::vector<Tuple>& tuples() const {
      return borrowed_ != nullptr ? *borrowed_ : handle_.tuples();
    }
    size_t size() const { return tuples().size(); }
    const Tuple& operator[](size_t i) const { return tuples()[i]; }
    void Release() {
      borrowed_ = nullptr;
      handle_.Release();
    }

   private:
    friend class PagedRelation;
    const std::vector<Tuple>* borrowed_ = nullptr;
    PageHandle handle_;
  };

  /// Pins page `i`: a pool Pin in disk mode (traffic recorded in `stats`
  /// when non-null), a borrow in memory mode (stats untouched).
  Result<PinnedPage> PinPage(size_t i, BufferPinStats* stats = nullptr) const;

  /// Sequential readahead hint: pre-populates the pool with up to
  /// `max_pages` pages from `first_page` without evicting (no-op in
  /// memory mode). Read faults propagate.
  Status Readahead(size_t first_page, size_t max_pages) const;

  /// Appends a tuple, charging a page write to `io` each time a page
  /// fills (call FlushTail when done to charge + persist the partial last
  /// page). Disk mode encodes and writes the page through the page file.
  Status Append(Tuple tuple, PageIoCounter* io);
  Status FlushTail(PageIoCounter* io);

  /// Declared sort order carried from the source relation (SpillToDisk)
  /// or set by a sorted producer; lets the planner skip re-sorts.
  const std::optional<SortSpec>& known_order() const { return known_order_; }
  void DeclareOrder(SortSpec spec) { known_order_ = std::move(spec); }

  /// Stats pre-computed at spill time (disk mode), for cost estimation
  /// without materializing the data.
  const std::optional<RelationStats>& stats() const { return stats_; }

  /// raw / encoded bytes of the backing file (1.0 in memory mode or when
  /// nothing has been written).
  double compression_ratio() const;
  /// Frame-padded bytes written to disk by this relation's appends.
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  std::string name_;
  Schema schema_;
  size_t tuples_per_page_;

  // In-memory mode.
  std::vector<std::vector<Tuple>> pages_;
  bool tail_open_ = false;

  // Disk-backed mode.
  std::shared_ptr<PageFile> file_;
  BufferManager* pool_ = nullptr;
  std::vector<Tuple> tail_;
  uint64_t bytes_written_ = 0;

  size_t tuple_count_ = 0;
  std::optional<SortSpec> known_order_;
  std::optional<RelationStats> stats_;
};

}  // namespace tempus

#endif  // TEMPUS_STORAGE_PAGED_RELATION_H_

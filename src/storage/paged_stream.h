#ifndef TEMPUS_STORAGE_PAGED_STREAM_H_
#define TEMPUS_STORAGE_PAGED_STREAM_H_

#include <memory>

#include "storage/paged_relation.h"
#include "stream/stream.h"

namespace tempus {

/// Pages prefetched ahead of a sequential scan position (bounded further
/// by the pool's free budget; see BufferManager::Readahead).
inline constexpr size_t kScanReadaheadPages = 4;

/// A disk batch ends at a page boundary once it pins 1/kBatchPinShare of
/// its pool's frame budget (at least one page), so the concurrent scans of
/// a streaming plan — each reader holding one batch — leave the pool
/// frames to evict instead of overcommitting it.
inline constexpr size_t kBatchPinShare = 4;

/// Scans a PagedRelation page by page, charging one page read to the
/// shared counter per page touched (and per re-pass after Open() is
/// called again). In disk-backed mode the scan pins exactly one page at a
/// time through the buffer pool — unpinning before advancing, so a scan's
/// resident footprint is one page plus readahead — and issues sequential
/// readahead hints as it moves. Pool traffic lands in the operator's
/// buffer_* metrics.
class PagedScanStream : public TupleStream {
 public:
  /// Borrowing: neither pointer is owned; both must outlive the stream.
  PagedScanStream(const PagedRelation* relation, PageIoCounter* io);

  /// Owning: shares the relation handle (catalog-registered disk scans).
  PagedScanStream(std::shared_ptr<const PagedRelation> relation,
                  PageIoCounter* io);

  const Schema& schema() const override { return relation_->schema(); }
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  /// Native batches hand decoded pages over zero-copy: in-memory pages as
  /// kStable rows, disk pages as kPinned rows whose batch keepalive shares
  /// the pin — the frame stays resident until the consumer clears the
  /// batch, never longer. A batch pins at most kBatchPinShare's share of
  /// the pool's frame budget.
  Result<bool> NextBatchImpl(TupleBatch* out, size_t max_rows) override;

 private:
  /// Pins page_index_ into current_ (fault point, metrics, readahead).
  Status PinCurrent();

  std::shared_ptr<const PagedRelation> owned_;
  const PagedRelation* relation_;
  PageIoCounter* io_;
  size_t page_index_ = 0;
  size_t slot_index_ = 0;
  // Shared so a batch can keep the pin alive after the scan advances.
  std::shared_ptr<PagedRelation::PinnedPage> current_;
  bool opened_ = false;
};

}  // namespace tempus

#endif  // TEMPUS_STORAGE_PAGED_STREAM_H_

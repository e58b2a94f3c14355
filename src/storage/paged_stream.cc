#include "storage/paged_stream.h"

#include <algorithm>

#include "buffer/buffer_manager.h"
#include "common/fault.h"

namespace tempus {

PagedScanStream::PagedScanStream(const PagedRelation* relation,
                                 PageIoCounter* io)
    : relation_(relation), io_(io) {}

PagedScanStream::PagedScanStream(std::shared_ptr<const PagedRelation> relation,
                                 PageIoCounter* io)
    : owned_(std::move(relation)), relation_(owned_.get()), io_(io) {}

Status PagedScanStream::OpenImpl() {
  page_index_ = 0;
  slot_index_ = 0;
  current_.reset();
  opened_ = true;
  ++metrics_.passes_left;
  return Status::Ok();
}

Status PagedScanStream::PinCurrent() {
  TEMPUS_FAULT_POINT("storage.page_read");
  if (io_ != nullptr) io_->CountRead();
  BufferPinStats pin_stats;
  auto pinned = std::make_shared<PagedRelation::PinnedPage>();
  TEMPUS_ASSIGN_OR_RETURN(*pinned,
                          relation_->PinPage(page_index_, &pin_stats));
  current_ = std::move(pinned);
  metrics_.buffer_hits += pin_stats.hits;
  metrics_.buffer_misses += pin_stats.misses;
  metrics_.buffer_evictions += pin_stats.evictions;
  metrics_.buffer_bytes_read += pin_stats.bytes_read;
  // Sequential scan: hint the pages we are about to need.
  return relation_->Readahead(page_index_ + 1, kScanReadaheadPages);
}

Result<bool> PagedScanStream::NextImpl(Tuple* out) {
  if (!opened_) {
    return Status::FailedPrecondition("PagedScanStream::Next before Open");
  }
  while (page_index_ < relation_->page_count()) {
    if (current_ == nullptr || !current_->valid()) {
      TEMPUS_RETURN_IF_ERROR(PinCurrent());
    }
    if (slot_index_ < current_->size()) {
      *out = (*current_)[slot_index_++];
      ++metrics_.tuples_read_left;
      return true;
    }
    ++page_index_;
    slot_index_ = 0;
    current_.reset();
  }
  return false;
}

Result<bool> PagedScanStream::NextBatchImpl(TupleBatch* out,
                                            size_t max_rows) {
  if (!opened_) {
    return Status::FailedPrecondition(
        "PagedScanStream::NextBatch before Open");
  }
  const LifespanRef* lifespan = BatchLifespan();
  const BufferManager* pool = relation_->pool();
  const size_t pin_limit =
      pool == nullptr ? 0
                      : std::max<size_t>(1, pool->frame_budget() /
                                                kBatchPinShare);
  size_t pinned_pages = 0;
  while (out->size() < max_rows && page_index_ < relation_->page_count()) {
    // Page boundary: stop once this batch holds its share of the pool.
    if (pool != nullptr && pinned_pages >= pin_limit) break;
    if (current_ == nullptr || !current_->valid()) {
      TEMPUS_RETURN_IF_ERROR(PinCurrent());
    }
    const std::vector<Tuple>& tuples = current_->tuples();
    const bool stable = current_->borrowed();
    bool keepalive_added = false;
    while (out->size() < max_rows && slot_index_ < tuples.size()) {
      const Tuple& tuple = tuples[slot_index_++];
      const Interval span =
          lifespan != nullptr ? lifespan->Of(tuple) : Interval();
      if (stable) {
        out->PushStable(&tuple, span);
      } else {
        if (!keepalive_added) {
          out->AddKeepalive(current_);
          keepalive_added = true;
          ++pinned_pages;
        }
        out->PushPinned(&tuple, span);
      }
      ++metrics_.tuples_read_left;
    }
    if (slot_index_ >= tuples.size()) {
      ++page_index_;
      slot_index_ = 0;
      // Drop the scan's share of the pin; a batch keepalive (if any) holds
      // the frame until the consumer moves on.
      current_.reset();
    }
  }
  return !out->empty();
}

}  // namespace tempus

#include "storage/paged_relation.h"

#include <utility>

namespace tempus {

Result<PagedRelation> PagedRelation::FromRelation(
    const TemporalRelation& relation, size_t tuples_per_page) {
  if (tuples_per_page == 0) {
    return Status::InvalidArgument("tuples_per_page must be positive");
  }
  PagedRelation paged(relation.name(), relation.schema(), tuples_per_page);
  for (const Tuple& t : relation.tuples()) {
    TEMPUS_RETURN_IF_ERROR(paged.Append(t, nullptr));
  }
  TEMPUS_RETURN_IF_ERROR(paged.FlushTail(nullptr));
  paged.known_order_ = relation.known_order();
  return paged;
}

Result<PagedRelation> PagedRelation::SpillToDisk(
    const TemporalRelation& relation, size_t tuples_per_page,
    BufferManager* pool, PageIoCounter* io, const EndpointIndex* index) {
  TEMPUS_ASSIGN_OR_RETURN(
      PagedRelation paged,
      CreateDiskBacked(relation.name(), relation.schema(), tuples_per_page,
                       pool));
  if (index == nullptr) {
    for (const Tuple& t : relation.tuples()) {
      TEMPUS_RETURN_IF_ERROR(paged.Append(t, io));
    }
    paged.known_order_ = relation.known_order();
  } else {
    for (uint32_t row : index->by_start()) {
      TEMPUS_RETURN_IF_ERROR(paged.Append(relation.tuple(row), io));
    }
    TEMPUS_ASSIGN_OR_RETURN(
        paged.known_order_,
        SortSpec::ByLifespan(relation.schema(), TemporalField::kValidFrom,
                             SortDirection::kAscending));
  }
  TEMPUS_RETURN_IF_ERROR(paged.FlushTail(io));
  return paged;
}

Result<PagedRelation> PagedRelation::CreateDiskBacked(std::string name,
                                                      Schema schema,
                                                      size_t tuples_per_page,
                                                      BufferManager* pool) {
  if (tuples_per_page == 0) {
    return Status::InvalidArgument("tuples_per_page must be positive");
  }
  if (pool == nullptr) {
    return Status::InvalidArgument(
        "disk-backed relation needs a buffer pool");
  }
  PagedRelation paged(name, schema, tuples_per_page);
  TEMPUS_ASSIGN_OR_RETURN(
      paged.file_,
      PageFile::CreateTemp(std::move(schema), kStorageFrameBytes, pool));
  paged.pool_ = pool;
  return paged;
}

PagedRelation::PagedRelation(std::string name, Schema schema,
                             size_t tuples_per_page)
    : name_(std::move(name)),
      schema_(std::move(schema)),
      tuples_per_page_(tuples_per_page == 0 ? 1 : tuples_per_page) {}

size_t PagedRelation::page_count() const {
  if (disk_backed()) {
    return file_->page_count() + (tail_.empty() ? 0 : 1);
  }
  return pages_.size();
}

Result<PagedRelation::PinnedPage> PagedRelation::PinPage(
    size_t i, BufferPinStats* stats) const {
  PinnedPage pinned;
  if (!disk_backed()) {
    if (i >= pages_.size()) {
      return Status::OutOfRange("page index out of range");
    }
    pinned.borrowed_ = &pages_[i];
    return pinned;
  }
  // The unflushed tail is readable in place (a scan may start before
  // FlushTail on a relation still being built).
  if (i == file_->page_count() && !tail_.empty()) {
    pinned.borrowed_ = &tail_;
    return pinned;
  }
  TEMPUS_ASSIGN_OR_RETURN(pinned.handle_, pool_->Pin(*file_, i, stats));
  return pinned;
}

Status PagedRelation::Readahead(size_t first_page, size_t max_pages) const {
  if (!disk_backed() || max_pages == 0) return Status::Ok();
  return pool_->Readahead(*file_, first_page, max_pages);
}

Status PagedRelation::Append(Tuple tuple, PageIoCounter* io) {
  if (disk_backed()) {
    tail_.push_back(std::move(tuple));
    ++tuple_count_;
    if (tail_.size() == tuples_per_page_) {
      TEMPUS_ASSIGN_OR_RETURN(const size_t page_id,
                              file_->AppendPage(tail_.data(), tail_.size()));
      bytes_written_ +=
          file_->PageFrames(page_id) * file_->frame_bytes();
      tail_.clear();
      if (io != nullptr) io->CountWrite();
    }
    return Status::Ok();
  }
  if (pages_.empty() || pages_.back().size() == tuples_per_page_) {
    if (tail_open_ && io != nullptr) {
      io->CountWrite();
    }
    pages_.emplace_back();
    pages_.back().reserve(tuples_per_page_);
    tail_open_ = true;
  }
  pages_.back().push_back(std::move(tuple));
  ++tuple_count_;
  if (pages_.back().size() == tuples_per_page_ && io != nullptr) {
    io->CountWrite();
    tail_open_ = false;
  }
  return Status::Ok();
}

Status PagedRelation::FlushTail(PageIoCounter* io) {
  if (disk_backed()) {
    if (tail_.empty()) return Status::Ok();
    TEMPUS_ASSIGN_OR_RETURN(const size_t page_id,
                            file_->AppendPage(tail_.data(), tail_.size()));
    bytes_written_ += file_->PageFrames(page_id) * file_->frame_bytes();
    tail_.clear();
    if (io != nullptr) io->CountWrite();
    return Status::Ok();
  }
  if (tail_open_) {
    if (io != nullptr) io->CountWrite();
    tail_open_ = false;
  }
  return Status::Ok();
}

double PagedRelation::compression_ratio() const {
  if (!disk_backed() || file_->encoded_bytes() == 0) return 1.0;
  return static_cast<double>(file_->raw_bytes()) /
         static_cast<double>(file_->encoded_bytes());
}

}  // namespace tempus

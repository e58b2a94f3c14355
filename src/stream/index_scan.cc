#include "stream/index_scan.h"

namespace tempus {

IndexScanStream::IndexScanStream(
    std::shared_ptr<const TemporalRelation> relation,
    std::shared_ptr<const EndpointIndex> index, TemporalField field,
    SortDirection direction)
    : relation_(std::move(relation)),
      index_(std::move(index)),
      perm_(index_->by(field)),
      descending_(direction == SortDirection::kDescending),
      lifespan_{relation_->schema().valid_from_index(),
                relation_->schema().valid_to_index()} {}

Status IndexScanStream::OpenImpl() {
  next_ = descending_ ? perm_.size() : 0;
  run_begin_ = run_end_ = perm_.size();
  opened_ = true;
  ++metrics_.passes_left;
  return Status::Ok();
}

bool IndexScanStream::NextRow(uint32_t* row) {
  if (!descending_) {
    if (next_ == perm_.size()) return false;
    *row = perm_[next_++];
    return true;
  }
  if (next_ == run_end_) {
    if (run_begin_ == 0) return false;
    run_end_ = run_begin_;
    const std::vector<Tuple>& tuples = relation_->tuples();
    const Interval last = lifespan_.Of(tuples[perm_[run_end_ - 1]]);
    run_begin_ = run_end_ - 1;
    while (run_begin_ > 0 &&
           lifespan_.Of(tuples[perm_[run_begin_ - 1]]).Equals(last)) {
      --run_begin_;
    }
    next_ = run_begin_;
  }
  *row = perm_[next_++];
  return true;
}

Result<bool> IndexScanStream::NextImpl(Tuple* out) {
  if (!opened_) {
    return Status::FailedPrecondition("IndexScanStream::Next before Open");
  }
  uint32_t row = 0;
  if (!NextRow(&row)) return false;
  *out = relation_->tuple(row);
  ++metrics_.tuples_read_left;
  return true;
}

Result<bool> IndexScanStream::NextBatchImpl(TupleBatch* out,
                                            size_t max_rows) {
  if (!opened_) {
    return Status::FailedPrecondition(
        "IndexScanStream::NextBatch before Open");
  }
  const std::vector<Tuple>& tuples = relation_->tuples();
  uint32_t row = 0;
  while (out->size() < max_rows && NextRow(&row)) {
    const Tuple& tuple = tuples[row];
    out->PushStable(&tuple, lifespan_.Of(tuple));
  }
  metrics_.tuples_read_left += out->size();
  return !out->empty();
}

}  // namespace tempus

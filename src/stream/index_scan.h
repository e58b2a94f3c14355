#ifndef TEMPUS_STREAM_INDEX_SCAN_H_
#define TEMPUS_STREAM_INDEX_SCAN_H_

#include <memory>

#include "relation/endpoint_index.h"
#include "relation/sort_spec.h"
#include "stream/stream.h"

namespace tempus {

/// Scans a registered relation in one of the four canonical lifespan
/// orders (SortSpec::ByLifespan) by walking its endpoint index: the order
/// enforcer the planner uses over a stored relation instead of a
/// buffering SortStream (docs/OPTIMIZER.md). Rows go out as zero-copy
/// kStable batches and the scan holds no workspace.
///
/// It emits exactly the rows, in exactly the order, that a stable
/// SortStream over the storage-order scan emits. An ascending order walks
/// its permutation forward. A descending order walks it backward and emits
/// each run of equal lifespans in forward (storage) order, which is where
/// a stable sort leaves ties.
///
/// The scan shares ownership of the relation and its index, so a relation
/// dropped or replaced mid-query stays readable until the scan is gone.
class IndexScanStream : public TupleStream {
 public:
  IndexScanStream(std::shared_ptr<const TemporalRelation> relation,
                  std::shared_ptr<const EndpointIndex> index,
                  TemporalField field, SortDirection direction);

  const Schema& schema() const override { return relation_->schema(); }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  Result<bool> NextBatchImpl(TupleBatch* out, size_t max_rows) override;

 private:
  /// The next row id in order; false at the end.
  bool NextRow(uint32_t* row);

  std::shared_ptr<const TemporalRelation> relation_;
  std::shared_ptr<const EndpointIndex> index_;
  const std::vector<uint32_t>& perm_;
  const bool descending_;
  LifespanRef lifespan_;
  // Ascending: perm_[next_] is the next row. Descending: rows
  // perm_[next_, run_end_) are the rest of the current run of equal
  // lifespans, and perm_[0, run_begin_) is still to come.
  size_t next_ = 0;
  size_t run_begin_ = 0;
  size_t run_end_ = 0;
  bool opened_ = false;
};

}  // namespace tempus

#endif  // TEMPUS_STREAM_INDEX_SCAN_H_

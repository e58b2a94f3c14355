#include "join/before_join.h"

#include <algorithm>
#include <bit>

namespace tempus {

BeforeJoinStream::BeforeJoinStream(std::unique_ptr<TupleStream> left,
                                   std::unique_ptr<TupleStream> right,
                                   BeforeJoinOptions options, Schema schema,
                                   LifespanRef left_ref,
                                   LifespanRef right_ref)
    : BatchOperator(options.batch_size),
      left_(std::move(left)),
      right_(std::move(right)),
      options_(std::move(options)),
      schema_(std::move(schema)),
      left_ref_(left_ref),
      right_ref_(right_ref) {}

Result<std::unique_ptr<BeforeJoinStream>> BeforeJoinStream::Create(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    BeforeJoinOptions options) {
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef left_ref,
                          LifespanRef::ForSchema(left->schema()));
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef right_ref,
                          LifespanRef::ForSchema(right->schema()));
  TEMPUS_ASSIGN_OR_RETURN(
      Schema schema,
      MakeJoinOutputSchema(left->schema(), right->schema(), options.naming));
  return std::unique_ptr<BeforeJoinStream>(new BeforeJoinStream(
      std::move(left), std::move(right), std::move(options),
      std::move(schema), left_ref, right_ref));
}

Status BeforeJoinStream::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(right_->Open());
  ++metrics_.passes_right;
  inner_.clear();
  inner_from_.clear();
  metrics_.ResetWorkspace();
  TimePoint previous_from = kMinTime;
  auto check_inner = [&](const Tuple& t) -> Status {
    ++metrics_.tuples_read_right;
    const TimePoint from = right_ref_.Of(t).start;
    if (options_.right_presorted && options_.verify_input_order &&
        from < previous_from) {
      return Status::FailedPrecondition(
          "before-join inner input is not sorted by ValidFrom ascending");
    }
    previous_from = from;
    metrics_.AddWorkspace();
    return Status::Ok();
  };
  TupleBatch scratch;
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool more,
                            right_->NextBatch(&scratch, batch_size_));
    if (!more) break;
    for (size_t i = 0; i < scratch.ActiveSize(); ++i) {
      const Tuple& row = scratch.row(scratch.ActiveIndex(i));
      TEMPUS_RETURN_IF_ERROR(check_inner(row));
      inner_.push_back(row);
    }
  }
  if (!options_.right_presorted) {
    std::vector<size_t> order(inner_.size());
    for (size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [this](size_t a, size_t b) {
                       return right_ref_.Of(inner_[a]).start <
                              right_ref_.Of(inner_[b]).start;
                     });
    std::vector<Tuple> sorted;
    sorted.reserve(inner_.size());
    for (size_t ix : order) sorted.push_back(std::move(inner_[ix]));
    inner_ = std::move(sorted);
  }
  inner_from_.reserve(inner_.size());
  for (const Tuple& tuple : inner_) {
    inner_from_.push_back(right_ref_.Of(tuple).start);
  }

  TEMPUS_RETURN_IF_ERROR(left_->Open());
  ++metrics_.passes_left;
  have_left_ = false;
  left_batch_.Clear();
  left_cursor_ = 0;
  ResetAdapter();
  return Status::Ok();
}

void BeforeJoinStream::StartRun() {
  ++metrics_.tuples_read_left;
  // First inner tuple with ValidFrom > current.ValidTo; everything
  // from there to the end satisfies X.TE < Y.TS.
  const TimePoint bound = left_ref_.Of(current_left_).end;
  inner_pos_ = static_cast<size_t>(
      std::upper_bound(inner_from_.begin(), inner_from_.end(), bound) -
      inner_from_.begin());
  metrics_.comparisons +=
      inner_.empty()
          ? 0
          : static_cast<uint64_t>(std::bit_width(inner_.size()));
  have_left_ = true;
}

Result<bool> BeforeJoinStream::ProduceBatch(TupleBatch* out,
                                            size_t max_rows) {
  const LifespanRef* lifespan = BatchLifespan();
  while (out->size() < max_rows) {
    if (!have_left_) {
      if (left_cursor_ >= left_batch_.ActiveSize()) {
        TEMPUS_ASSIGN_OR_RETURN(bool more,
                                left_->NextBatch(&left_batch_, batch_size_));
        left_cursor_ = 0;
        if (!more) break;
        if (left_batch_.ActiveSize() == 0) continue;
      }
      current_left_.AssignFrom(
          left_batch_.row(left_batch_.ActiveIndex(left_cursor_++)));
      StartRun();
    }
    // Emit the tail run, suspending at the batch boundary (the run resumes
    // on the next call; current_left_ is a private copy, so the suspended
    // probe survives the outer batch refill).
    while (inner_pos_ < inner_.size() && out->size() < max_rows) {
      out->PushOwnedConcat(current_left_, inner_[inner_pos_++], lifespan);
      ++metrics_.tuples_emitted;
    }
    if (inner_pos_ < inner_.size()) return true;
    have_left_ = false;
  }
  return !out->empty();
}

BeforeSemijoin::BeforeSemijoin(std::unique_ptr<TupleStream> x,
                               std::unique_ptr<TupleStream> y,
                               LifespanRef x_ref, LifespanRef y_ref,
                               size_t batch_size)
    : BatchOperator(batch_size),
      x_(std::move(x)),
      y_(std::move(y)),
      x_ref_(x_ref),
      y_ref_(y_ref) {}

Result<std::unique_ptr<BeforeSemijoin>> BeforeSemijoin::Create(
    std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
    size_t batch_size) {
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef x_ref,
                          LifespanRef::ForSchema(x->schema()));
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef y_ref,
                          LifespanRef::ForSchema(y->schema()));
  return std::unique_ptr<BeforeSemijoin>(new BeforeSemijoin(
      std::move(x), std::move(y), x_ref, y_ref, batch_size));
}

Status BeforeSemijoin::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(y_->Open());
  ++metrics_.passes_right;
  max_y_from_ = kMinTime;
  y_empty_ = true;
  TupleBatch scratch;
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool more, y_->NextBatch(&scratch, batch_size_));
    if (!more) break;
    for (size_t i = 0; i < scratch.ActiveSize(); ++i) {
      ++metrics_.tuples_read_right;
      max_y_from_ = std::max(
          max_y_from_, y_ref_.Of(scratch.row(scratch.ActiveIndex(i))).start);
      y_empty_ = false;
    }
  }
  TEMPUS_RETURN_IF_ERROR(x_->Open());
  ++metrics_.passes_left;
  x_batch_.Clear();
  x_cursor_ = 0;
  ResetAdapter();
  return Status::Ok();
}

Result<bool> BeforeSemijoin::ProduceBatch(TupleBatch* out, size_t max_rows) {
  if (y_empty_) return false;
  while (out->size() < max_rows) {
    if (x_cursor_ >= x_batch_.ActiveSize()) {
      TEMPUS_ASSIGN_OR_RETURN(bool more,
                              x_->NextBatch(&x_batch_, batch_size_));
      x_cursor_ = 0;
      if (!more) break;
      continue;
    }
    const size_t i = x_batch_.ActiveIndex(x_cursor_++);
    const Tuple& row = x_batch_.row(i);
    ++metrics_.tuples_read_left;
    ++metrics_.comparisons;
    if (x_ref_.Of(row).end < max_y_from_) {
      // Stable rows outlive the child stream, so they forward zero-copy;
      // owned/pinned rows are recycled at the child's next refill and must
      // be copied out.
      if (x_batch_.kind(i) == TupleBatch::RowKind::kStable) {
        out->PushStable(&row, x_batch_.span(i));
      } else {
        out->PushOwnedCopy(row, x_batch_.span(i));
      }
      ++metrics_.tuples_emitted;
    }
  }
  return !out->empty();
}

}  // namespace tempus

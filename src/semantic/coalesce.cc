#include "semantic/coalesce.h"

#include <algorithm>

#include "common/fault.h"

namespace tempus {

Result<SortSpec> CoalesceSortSpec(const Schema& schema) {
  if (!schema.has_lifespan()) {
    return Status::FailedPrecondition(
        "coalescing requires a designated lifespan, schema is " +
        schema.ToString());
  }
  std::vector<SortKey> keys;
  keys.reserve(schema.attribute_count());
  for (size_t i = 0; i < schema.attribute_count(); ++i) {
    if (i == schema.valid_from_index() || i == schema.valid_to_index()) {
      continue;
    }
    keys.push_back({i, SortDirection::kAscending});
  }
  keys.push_back({schema.valid_from_index(), SortDirection::kAscending});
  keys.push_back({schema.valid_to_index(), SortDirection::kAscending});
  return SortSpec(std::move(keys));
}

CoalesceStream::CoalesceStream(std::unique_ptr<TupleStream> child,
                               LifespanRef lifespan, SortSpec spec,
                               bool verify_input_order, size_t batch_size)
    : BatchOperator(batch_size),
      child_(std::move(child)),
      lifespan_(lifespan),
      spec_(std::move(spec)),
      verify_input_order_(verify_input_order) {}

Result<std::unique_ptr<CoalesceStream>> CoalesceStream::Create(
    std::unique_ptr<TupleStream> child, bool verify_input_order,
    size_t batch_size) {
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef lifespan,
                          LifespanRef::ForSchema(child->schema()));
  TEMPUS_ASSIGN_OR_RETURN(SortSpec spec, CoalesceSortSpec(child->schema()));
  return std::unique_ptr<CoalesceStream>(
      new CoalesceStream(std::move(child), lifespan, std::move(spec),
                         verify_input_order, batch_size));
}

Status CoalesceStream::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(child_->Open());
  ++metrics_.passes_left;
  metrics_.ResetWorkspace();
  have_acc_ = false;
  input_done_ = false;
  previous_.reset();
  input_.Clear();
  input_cursor_ = 0;
  ResetAdapter();
  return Status::Ok();
}

Status CoalesceStream::CheckOrder(const Tuple& next) {
  if (!verify_input_order_) return Status::Ok();
  if (previous_.has_value() && spec_.Compare(*previous_, next) > 0) {
    return Status::FailedPrecondition(
        "coalesce input violates its promised order (" +
        previous_->ToString() + " then " + next.ToString() +
        "); insert a sort on the coalescing key");
  }
  previous_ = next;
  return Status::Ok();
}

bool CoalesceStream::SameGroup(const Tuple& a, const Tuple& b) {
  const size_t n = a.size();
  for (size_t i = 0; i < n; ++i) {
    if (i == lifespan_.valid_from_index || i == lifespan_.valid_to_index) {
      continue;
    }
    ++metrics_.comparisons;
    if (!a.at(i).Equals(b.at(i))) return false;
  }
  return true;
}

Tuple CoalesceStream::Flush() {
  Tuple row = std::move(acc_);
  row.Set(lifespan_.valid_from_index, Value::Time(acc_span_.start));
  row.Set(lifespan_.valid_to_index, Value::Time(acc_span_.end));
  have_acc_ = false;
  metrics_.SubWorkspace();
  ++metrics_.tuples_emitted;
  return row;
}

Result<bool> CoalesceStream::ProduceBatch(TupleBatch* out, size_t max_rows) {
  while (out->size() < max_rows) {
    if (input_done_) {
      if (have_acc_) {
        const Interval flushed = acc_span_;
        out->PushOwned(Flush(), flushed);
      }
      break;
    }
    if (input_cursor_ >= input_.ActiveSize()) {
      TEMPUS_ASSIGN_OR_RETURN(bool more,
                              child_->NextBatch(&input_, batch_size_));
      input_cursor_ = 0;
      if (!more) input_done_ = true;
      continue;
    }
    const Tuple& next = input_.row(input_.ActiveIndex(input_cursor_++));
    ++metrics_.tuples_read_left;
    TEMPUS_RETURN_IF_ERROR(CheckOrder(next));
    const Interval span = lifespan_.Of(next);
    if (!have_acc_) {
      acc_.AssignFrom(next);
      acc_span_ = span;
      have_acc_ = true;
      metrics_.AddWorkspace();
      continue;
    }
    if (SameGroup(acc_, next) && span.start <= acc_span_.end) {
      // Same value group, adjacent or overlapping: extend the accumulated
      // maximal interval instead of emitting.
      TEMPUS_FAULT_POINT("coalesce.merge");
      acc_span_.end = std::max(acc_span_.end, span.end);
      continue;
    }
    const Interval flushed = acc_span_;
    out->PushOwned(Flush(), flushed);
    acc_.AssignFrom(next);
    acc_span_ = span;
    have_acc_ = true;
    metrics_.AddWorkspace();
  }
  return !out->empty();
}

}  // namespace tempus

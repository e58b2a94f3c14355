#include "stream/stream.h"

#include <chrono>

namespace tempus {

namespace {

uint64_t ElapsedNs(std::chrono::steady_clock::time_point start) {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now() - start)
          .count());
}

}  // namespace

Status TupleStream::TracedOpen() {
  const auto start = std::chrono::steady_clock::now();
  Status status = OpenImpl();
  trace_->RecordOpen(span_id_, ElapsedNs(start));
  return status;
}

Result<bool> TupleStream::TracedNext(Tuple* out) {
  const auto start = std::chrono::steady_clock::now();
  Result<bool> result = NextImpl(out);
  trace_->RecordNext(span_id_, ElapsedNs(start));
  return result;
}

Result<bool> TupleStream::NextBatch(TupleBatch* out, size_t max_rows) {
  TEMPUS_FAULT_POINT("stream.next");
  if (cancel_ != nullptr) {
    Status cancelled = cancel_->Check();
    if (!cancelled.ok()) return cancelled;
  }
  const size_t wanted = max_rows != 0 ? max_rows : DefaultBatchSize();
  TEMPUS_RETURN_IF_ERROR(out->Reserve(wanted));
  Result<bool> result = trace_ == nullptr ? NextBatchImpl(out, wanted)
                                          : TracedNextBatch(out, wanted);
  if (result.ok() && *result) {
    ++metrics_.batches;
    metrics_.batch_rows += out->ActiveSize();
  }
  return result;
}

Result<bool> TupleStream::TracedNextBatch(TupleBatch* out, size_t max_rows) {
  const auto start = std::chrono::steady_clock::now();
  Result<bool> result = NextBatchImpl(out, max_rows);
  trace_->RecordNext(span_id_, ElapsedNs(start));
  return result;
}

const LifespanRef* TupleStream::BatchLifespan() {
  if (!batch_lifespan_resolved_) {
    Result<LifespanRef> ref = LifespanRef::ForSchema(schema());
    batch_has_lifespan_ = ref.ok();
    if (ref.ok()) batch_lifespan_ = *ref;
    batch_lifespan_resolved_ = true;
  }
  return batch_has_lifespan_ ? &batch_lifespan_ : nullptr;
}

Result<bool> TupleStream::NextBatchImpl(TupleBatch* out, size_t max_rows) {
  // Tuple-at-a-time adapter: any operator without a native batch path
  // still produces batches (of owned rows). Calls NextImpl directly — the
  // per-batch fault/cancel/trace hooks already ran in the wrapper.
  const LifespanRef* lifespan = BatchLifespan();
  Tuple tuple;
  while (out->size() < max_rows) {
    TEMPUS_ASSIGN_OR_RETURN(const bool has, NextImpl(&tuple));
    if (!has) break;
    const Interval span =
        lifespan != nullptr ? lifespan->Of(tuple) : Interval();
    out->PushOwned(std::move(tuple), span);
    tuple = Tuple();
  }
  return !out->empty();
}

void TupleStream::EnableTracing(TraceCollector* collector) {
  EnableTracingInternal(collector, /*parent=*/-1);
}

void TupleStream::SetCancellation(CancellationToken* token) {
  cancel_ = token;
  for (const TupleStream* child : children()) {
    // Same ownership argument as EnableTracingInternal below.
    const_cast<TupleStream*>(child)->SetCancellation(token);
  }
}

void TupleStream::EnableTracingInternal(TraceCollector* collector,
                                        int parent) {
  trace_ = collector;
  span_id_ = collector == nullptr
                 ? -1
                 : collector->AddSpan(label_.empty() ? "op" : label_, parent);
  for (const TupleStream* child : children()) {
    // children() exposes const views for reporting; the tree is owned by
    // this operator, so attaching the collector is a legitimate mutation.
    const_cast<TupleStream*>(child)->EnableTracingInternal(collector,
                                                           span_id_);
  }
}

VectorStream::VectorStream(Schema schema, const std::vector<Tuple>* borrowed,
                           std::vector<Tuple> owned)
    : schema_(std::move(schema)), owned_(std::move(owned)) {
  tuples_ = borrowed != nullptr ? borrowed : &owned_;
}

std::unique_ptr<VectorStream> VectorStream::Borrowing(
    const Schema& schema, const std::vector<Tuple>* tuples) {
  return std::unique_ptr<VectorStream>(
      new VectorStream(schema, tuples, {}));
}

std::unique_ptr<VectorStream> VectorStream::Owning(const Schema& schema,
                                                   std::vector<Tuple> tuples) {
  return std::unique_ptr<VectorStream>(
      new VectorStream(schema, nullptr, std::move(tuples)));
}

std::unique_ptr<VectorStream> VectorStream::Scan(
    const TemporalRelation& relation) {
  return Borrowing(relation.schema(), &relation.tuples());
}

Status VectorStream::OpenImpl() {
  next_index_ = 0;
  opened_ = true;
  ++metrics_.passes_left;
  return Status::Ok();
}

Result<bool> VectorStream::NextImpl(Tuple* out) {
  if (!opened_) {
    return Status::FailedPrecondition("VectorStream::Next before Open");
  }
  if (next_index_ >= tuples_->size()) {
    return false;
  }
  *out = (*tuples_)[next_index_++];
  ++metrics_.tuples_read_left;
  return true;
}

Result<bool> VectorStream::NextBatchImpl(TupleBatch* out, size_t max_rows) {
  if (!opened_) {
    return Status::FailedPrecondition("VectorStream::NextBatch before Open");
  }
  const LifespanRef* lifespan = BatchLifespan();
  const size_t limit = tuples_->size();
  const size_t begin = next_index_;
  while (out->size() < max_rows && next_index_ < limit) {
    const Tuple& tuple = (*tuples_)[next_index_++];
    out->PushStable(&tuple,
                    lifespan != nullptr ? lifespan->Of(tuple) : Interval());
  }
  metrics_.tuples_read_left += next_index_ - begin;
  return !out->empty();
}

Result<TemporalRelation> Materialize(TupleStream* stream,
                                     const std::string& name) {
  TEMPUS_RETURN_IF_ERROR(stream->Open());
  TemporalRelation out(name, stream->schema());
  Tuple tuple;
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool has, stream->Next(&tuple));
    if (!has) break;
    TEMPUS_RETURN_IF_ERROR(out.Append(std::move(tuple)));
    tuple = Tuple();
  }
  return out;
}

namespace {

void CollectInto(const TupleStream& node, OperatorMetrics* total) {
  *total += node.metrics();
  for (const TupleStream* child : node.children()) {
    CollectInto(*child, total);
  }
}

}  // namespace

OperatorMetrics CollectPlanMetrics(const TupleStream& root) {
  OperatorMetrics total;
  CollectInto(root, &total);
  return total;
}

Result<size_t> DrainCount(TupleStream* stream) {
  TEMPUS_RETURN_IF_ERROR(stream->Open());
  size_t count = 0;
  Tuple tuple;
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool has, stream->Next(&tuple));
    if (!has) break;
    ++count;
  }
  return count;
}

Result<TemporalRelation> MaterializeBatches(TupleStream* stream,
                                            const std::string& name,
                                            size_t batch_size) {
  TEMPUS_RETURN_IF_ERROR(stream->Open());
  TemporalRelation out(name, stream->schema());
  TupleBatch batch;
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool has, stream->NextBatch(&batch, batch_size));
    if (!has) break;
    for (size_t i = 0; i < batch.ActiveSize(); ++i) {
      TEMPUS_RETURN_IF_ERROR(
          out.Append(Tuple(batch.row(batch.ActiveIndex(i)))));
    }
  }
  return out;
}

Result<size_t> DrainCountBatches(TupleStream* stream, size_t batch_size) {
  TEMPUS_RETURN_IF_ERROR(stream->Open());
  size_t count = 0;
  TupleBatch batch;
  while (true) {
    TEMPUS_ASSIGN_OR_RETURN(bool has, stream->NextBatch(&batch, batch_size));
    if (!has) break;
    count += batch.ActiveSize();
  }
  return count;
}

}  // namespace tempus

#ifndef TEMPUS_STREAM_STREAM_H_
#define TEMPUS_STREAM_STREAM_H_

#include <memory>
#include <string>
#include <vector>

#include "common/cancellation.h"
#include "common/fault.h"
#include "common/result.h"
#include "common/status.h"
#include "obs/trace.h"
#include "relation/schema.h"
#include "relation/temporal_relation.h"
#include "relation/tuple.h"
#include "stream/batch.h"
#include "stream/metrics.h"

namespace tempus {

/// Planner cost estimate stamped onto a plan node (docs/OPTIMIZER.md):
/// expected output cardinality and peak workspace tuples. EXPLAIN renders
/// it as "est=(rows=N ws=M)"; EXPLAIN ANALYZE prints it beside the
/// measured counters so estimation error is visible per operator.
struct PlanEstimate {
  bool valid = false;
  double rows = 0.0;
  double workspace = 0.0;
};

/// A stream is "an ordered sequence of data objects" (Section 4.1). All
/// operators in the library — scans, sorts, and the temporal joins — are
/// pull-based TupleStreams, so networks of stream processors compose by
/// ownership.
///
/// Protocol: Open() must be called before the first Next(); calling Open()
/// again rewinds the stream (another pass — implementations count passes in
/// their metrics). Next() produces tuples until it returns false.
///
/// Open()/Next() are non-virtual wrappers over the OpenImpl()/NextImpl()
/// overrides so that EXPLAIN ANALYZE can time every call: with no
/// TraceCollector attached the wrapper is a single pointer test, keeping
/// the untraced hot path within noise of a direct virtual call.
class TupleStream {
 public:
  virtual ~TupleStream() = default;

  TupleStream(const TupleStream&) = delete;
  TupleStream& operator=(const TupleStream&) = delete;

  /// Schema of produced tuples; valid before Open().
  virtual const Schema& schema() const = 0;

  /// Starts (or restarts) the stream. Checks the chaos fault point and
  /// the cancellation token (with a full clock sample — Open() is cold)
  /// before doing any work.
  Status Open() {
    TEMPUS_FAULT_POINT("stream.open");
    if (cancel_ != nullptr) {
      TEMPUS_RETURN_IF_ERROR(cancel_->CheckNow());
    }
    if (trace_ == nullptr) return OpenImpl();
    return TracedOpen();
  }

  /// Produces the next tuple into *out. Returns false at end-of-stream.
  /// With a cancellation token attached, every call polls it first, so a
  /// cancelled or deadline-expired query unwinds with Status::Cancelled
  /// from whichever operator Next()s next; untoken'd streams pay only the
  /// same null-pointer test as the trace hook.
  Result<bool> Next(Tuple* out) {
    TEMPUS_FAULT_POINT("stream.next");
    if (cancel_ != nullptr) {
      Status cancelled = cancel_->Check();
      if (!cancelled.ok()) return cancelled;
    }
    if (trace_ == nullptr) return NextImpl(out);
    return TracedNext(out);
  }

  /// Produces the next batch of tuples into *out (cleared first). Returns
  /// false at end-of-stream with an empty batch. `max_rows` caps the batch
  /// (0 uses DefaultBatchSize()); producers may overshoot slightly when an
  /// indivisible unit of work (one probe) lands on the boundary.
  ///
  /// Every stream supports this: operators without a native batch
  /// implementation go through a tuple-at-a-time adapter over NextImpl().
  /// The chaos fault point and cancellation poll fire once per batch (not
  /// per tuple), and EXPLAIN ANALYZE counts batches/rows per operator.
  Result<bool> NextBatch(TupleBatch* out, size_t max_rows = 0);

  /// Operator cost counters; zeroed by Open() only where documented.
  virtual const OperatorMetrics& metrics() const { return metrics_; }

  /// Child operators (inputs) of this stream, for plan-wide metric
  /// rollups and tree printing. Leaves return {}.
  virtual std::vector<const TupleStream*> children() const { return {}; }

  /// Display label for plan rendering; the planner sets this to the
  /// operator's EXPLAIN line. Empty for hand-built operators that were
  /// never labeled.
  const std::string& label() const { return label_; }
  void set_label(std::string label) { label_ = std::move(label); }

  /// Cost estimate stamped by the planner; invalid for hand-built
  /// operator trees (est annotations are then simply omitted).
  const PlanEstimate& estimate() const { return estimate_; }
  void set_estimate(const PlanEstimate& estimate) { estimate_ = estimate; }

  /// Attaches `collector` to this operator and (recursively) its children,
  /// registering one span per node. Passing nullptr detaches. The caller
  /// must own the tree; span updates are not synchronized, so only the
  /// thread driving the plan may pull a traced stream.
  void EnableTracing(TraceCollector* collector);

  /// Span registered by EnableTracing, or -1 when untraced.
  int trace_span_id() const { return span_id_; }

  /// Attaches `token` to this operator and (recursively) its children so
  /// every Open()/Next() polls it; passing nullptr detaches. The token is
  /// not owned and must outlive the stream (the server scopes one token
  /// per query). Like tracing, attachment itself is single-threaded; only
  /// Cancel() may come from another thread.
  void SetCancellation(CancellationToken* token);

  /// Token attached by SetCancellation, if any.
  CancellationToken* cancellation() const { return cancel_; }

 protected:
  TupleStream() = default;

  virtual Status OpenImpl() = 0;
  virtual Result<bool> NextImpl(Tuple* out) = 0;

  /// Batch production hook. The default adapter pulls NextImpl() into
  /// owned rows (endpoints from the schema's lifespan when it has one), so
  /// unconverted operators join batch pipelines unchanged; converted
  /// operators override it and fill batches natively.
  virtual Result<bool> NextBatchImpl(TupleBatch* out, size_t max_rows);

  /// Lifespan accessor for batch producers: resolved once per stream from
  /// schema(), nullptr when the schema has no temporal columns (such rows
  /// get empty spans).
  const LifespanRef* BatchLifespan();

  OperatorMetrics metrics_;

 private:
  Status TracedOpen();
  Result<bool> TracedNext(Tuple* out);
  Result<bool> TracedNextBatch(TupleBatch* out, size_t max_rows);
  void EnableTracingInternal(TraceCollector* collector, int parent);

  std::string label_;
  PlanEstimate estimate_;
  TraceCollector* trace_ = nullptr;
  CancellationToken* cancel_ = nullptr;
  int span_id_ = -1;
  LifespanRef batch_lifespan_{};
  bool batch_lifespan_resolved_ = false;
  bool batch_has_lifespan_ = false;
};

/// Streams tuples from an in-memory vector; either borrowing (caller keeps
/// the storage alive) or owning.
class VectorStream : public TupleStream {
 public:
  /// Borrows `tuples`; the pointee must outlive the stream.
  static std::unique_ptr<VectorStream> Borrowing(
      const Schema& schema, const std::vector<Tuple>* tuples);

  /// Takes ownership of `tuples`.
  static std::unique_ptr<VectorStream> Owning(const Schema& schema,
                                              std::vector<Tuple> tuples);

  /// Borrows the tuples of `relation` (which must outlive the stream).
  static std::unique_ptr<VectorStream> Scan(const TemporalRelation& relation);

  const Schema& schema() const override { return schema_; }

 protected:
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  /// Native batches: zero-copy kStable references into the vector (it
  /// outlives the stream in both the borrowing and owning cases).
  Result<bool> NextBatchImpl(TupleBatch* out, size_t max_rows) override;

 private:
  VectorStream(Schema schema, const std::vector<Tuple>* borrowed,
               std::vector<Tuple> owned);

  Schema schema_;
  std::vector<Tuple> owned_;
  const std::vector<Tuple>* tuples_;  // Points at owned_ or the borrowed vec.
  size_t next_index_ = 0;
  bool opened_ = false;
};

/// Drains `stream` into a relation named `name`.
Result<TemporalRelation> Materialize(TupleStream* stream,
                                     const std::string& name);

/// Drains `stream`, discarding tuples; returns the count (used by benches
/// that only need cost counters).
Result<size_t> DrainCount(TupleStream* stream);

/// Drains `stream` through NextBatch() into a relation named `name`.
/// batch_size = 0 uses DefaultBatchSize().
Result<TemporalRelation> MaterializeBatches(TupleStream* stream,
                                            const std::string& name,
                                            size_t batch_size = 0);

/// Drains `stream` through NextBatch(), discarding rows; returns the row
/// count (the batch-mode twin of DrainCount for benches).
Result<size_t> DrainCountBatches(TupleStream* stream, size_t batch_size = 0);

/// Aggregates metrics over the whole operator tree rooted at `root`:
/// counters are summed; peak workspace is summed across operators (each
/// operator holds its state simultaneously during a pipelined run).
OperatorMetrics CollectPlanMetrics(const TupleStream& root);

}  // namespace tempus

#endif  // TEMPUS_STREAM_STREAM_H_

#ifndef TEMPUS_JOIN_BATCH_SWEEP_H_
#define TEMPUS_JOIN_BATCH_SWEEP_H_

#include <deque>
#include <memory>
#include <vector>

#include "allen/interval_algebra.h"
#include "join/allen_sweep_join.h"
#include "join/batch_workspace.h"
#include "join/contain_join.h"
#include "join/join_common.h"
#include "join/overlap_semijoin.h"
#include "stream/batch.h"
#include "stream/batch_operator.h"
#include "stream/stream.h"

namespace tempus {

/// The Section 4.2.1-4.2.4 sweeps, each implemented once as a batch
/// operator (docs/BATCH.md). Each consumes its children through
/// NextBatch(), keeps its sweep state in the columnar workspaces of
/// batch_workspace.h, and emits output batches (zero-copy for semijoins
/// over stable rows); tuple-at-a-time consumers pull the same rows through
/// BatchOperator's row adapter. The public factories (MakeContainJoin,
/// MakeAllenSweepJoin, MakeOverlapSemijoin, MakeContain[ed]Semijoin,
/// MakeSelfContain[ed]Semijoin) validate the sort orders and build these
/// classes; the output is independent of the batch size — the batch axis
/// of the differential harness (`tempus_check --sweep --batch=...`)
/// checks every size against batch 1.

namespace internal {

/// Pulls batches from one input and exposes a one-row peek cursor over
/// them — the paper's per-stream input buffer — with one virtual call per
/// batch instead of per tuple.
///
/// Lifetime: the peek row lives in the reader's current input batch. The
/// batch is only refilled inside Fill() once every buffered row has been
/// peeked, and the owning operator calls Fill() only between probes — so a
/// raw pointer to the peek row stays valid from the moment the peek is
/// taken until the next Fill() after Consume(), spanning an entire probe
/// (including a probe suspended across ProduceBatch calls).
class BatchReader {
 public:
  BatchReader() = default;

  /// `reads` is the owning operator's tuples_read_{left,right} counter,
  /// bumped once per peek filled. `validator` may be null; it is borrowed.
  /// `batch_size` is the owner's resolved batch size (>= 1).
  void Attach(TupleStream* child, SweepFrame frame, OrderValidator* validator,
              size_t batch_size, uint64_t* reads) {
    child_ = child;
    frame_ = frame;
    validator_ = validator;
    batch_size_ = batch_size;
    reads_ = reads;
  }

  /// Forgets buffered rows (the child was re-Open()ed for another pass).
  void Reset() {
    batch_.Clear();
    cursor_ = 0;
    row_ = nullptr;
    stable_ = false;
    has_peek_ = false;
    done_ = false;
  }

  /// Ensures a peek is available, pulling the next child batch when the
  /// current one is spent; returns false when the input is exhausted.
  /// The common case — peeking the next row of an already-buffered batch —
  /// is inline; the refill path is out of line.
  Result<bool> Fill() {
    if (has_peek_) return true;
    if (cursor_ < batch_.ActiveSize()) {
      const size_t i = batch_.ActiveIndex(cursor_++);
      row_ = &batch_.row(i);
      stable_ = batch_.kind(i) == TupleBatch::RowKind::kStable;
      raw_span_ = batch_.span(i);
      if (validator_ != nullptr) {
        // Batch span columns carry the row's lifespan in producer
        // coordinates, so order checking reads them directly instead of
        // re-extracting from the payload.
        TEMPUS_RETURN_IF_ERROR(validator_->CheckSpan(raw_span_));
      }
      span_ = frame_.Map(raw_span_);
      has_peek_ = true;
      if (reads_ != nullptr) ++*reads_;
      return true;
    }
    return FillSlow();
  }

  bool has_peek() const { return has_peek_; }
  /// Child reported end-of-stream (a peek may still be pending).
  bool done() const { return done_; }
  /// No peek and none will come.
  bool exhausted() const { return done_ && !has_peek_; }

  /// Peek lifespan in sweep coordinates / as recorded in the batch (raw).
  const Interval& span() const { return span_; }
  const Interval& raw_span() const { return raw_span_; }
  const Tuple& row() const { return *row_; }
  /// True when the peek row outlives the child stream (kStable), so it can
  /// be forwarded downstream zero-copy.
  bool stable() const { return stable_; }

  void Consume() { has_peek_ = false; }

 private:
  /// Refills the input batch (possibly several times for empty batches)
  /// and peeks its first row; flips done_ at end of stream.
  Result<bool> FillSlow();

  TupleStream* child_ = nullptr;
  SweepFrame frame_{};
  OrderValidator* validator_ = nullptr;
  size_t batch_size_ = 1;
  uint64_t* reads_ = nullptr;

  TupleBatch batch_;
  size_t cursor_ = 0;
  const Tuple* row_ = nullptr;
  Interval raw_span_{};
  Interval span_{};
  bool stable_ = false;
  bool has_peek_ = false;
  bool done_ = false;
};

/// The two shared-shape pair joins: the Contain-join (strict containment,
/// Section 4.2.1) and the Allen-mask sweep join (Section 4.2.4). Both
/// sides keep a GaplessWorkspace swept with columnar endpoint predicates;
/// the min-endpoint trackers skip a GC sweep entirely when nothing can be
/// dead, which never changes the retained state (a skipped sweep would
/// have removed zero entries).
class BatchPairSweepJoin final : public BatchOperator {
 public:
  /// Behavioral switches resolved by the factories.
  struct Spec {
    /// Contain-join predicate and GC rules (vs the Allen mask's).
    bool contain = false;
    /// Contain-join kContaineeByEnd mode: the right stream is keyed (and
    /// the left state GC-bounded) by the containee end.
    bool right_key_by_end = false;
    /// Allen mask in sweep coordinates (contain == false only).
    AllenMask frame_mask{};
    bool keep_left_touch = false;
    bool keep_right_touch = false;
    /// Contain-join read phase under the paper's 1/lambda disposal
    /// heuristic (kLambdaHeuristic; both inputs keyed by start only), with
    /// the configured mean inter-arrival estimates (<= 0: online).
    bool lambda_heuristic = false;
    double left_mean_interarrival = 0.0;
    double right_mean_interarrival = 0.0;
  };

  static Result<std::unique_ptr<TupleStream>> Create(
      std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
      const Spec& spec, SweepFrame frame, TemporalSortOrder left_order,
      TemporalSortOrder right_order, bool verify_order,
      const JoinNaming& naming, size_t batch_size, const char* left_label,
      const char* right_label);

  const Schema& schema() const override { return schema_; }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {left_child_.get(), right_child_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  BatchPairSweepJoin(std::unique_ptr<TupleStream> left,
                     std::unique_ptr<TupleStream> right, const Spec& spec,
                     SweepFrame frame, Schema schema,
                     std::unique_ptr<OrderValidator> left_validator,
                     std::unique_ptr<OrderValidator> right_validator,
                     size_t batch_size);

  void CollectGarbage();
  Result<bool> Advance();
  void ScanMatches(const GaplessWorkspace& targets);
  /// Opposite-state tuples that reading the given side next would make
  /// disposable, projecting its head one mean inter-arrival ahead (the
  /// lambda heuristic's score, Section 4.2.1 read phase).
  size_t EstimateDisposals(bool read_left) const;

  std::unique_ptr<TupleStream> left_child_;
  std::unique_ptr<TupleStream> right_child_;
  Spec spec_;
  // The frame mask is exactly TQuel `overlap` (the nine intersecting
  // relations): membership reduces to the two-compare share-a-point test,
  // skipping the full Allen classification per pair.
  bool intersect_fast_ = false;
  SweepFrame frame_;
  Schema schema_;
  std::unique_ptr<OrderValidator> left_validator_;
  std::unique_ptr<OrderValidator> right_validator_;

  BatchReader left_;
  BatchReader right_;
  GaplessWorkspace left_state_;
  GaplessWorkspace right_state_;

  // Probe cursor: the most recently consumed peek vs the opposite state.
  // probe_row_ points into the probing side's reader batch (see the
  // BatchReader lifetime note); the workspace copies it on retention.
  const Tuple* probe_row_ = nullptr;
  Interval probe_span_{};
  bool probe_is_left_ = false;
  bool probe_stable_ = false;
  bool probing_ = false;
  // Indices into the opposite workspace that match the current probe,
  // filled by one columnar ScanMatches pass per probe; emission resumes at
  // match_pos_ when a full output batch pauses the probe mid-emission.
  std::vector<uint32_t> match_idx_;
  size_t match_pos_ = 0;

  // Online inter-arrival estimation for the lambda heuristic: peeks read
  // per side and the sweep key of each side's first peek.
  uint64_t left_reads_ = 0;
  uint64_t right_reads_ = 0;
  TimePoint left_first_key_ = 0;
  TimePoint right_first_key_ = 0;
};

/// Overlap-semijoin (Section 4.2.4): two peek readers, zero workspace, X
/// rows emitted in input order (zero-copy when stable).
class BatchOverlapSemijoin final : public BatchOperator {
 public:
  static Result<std::unique_ptr<TupleStream>> Create(
      std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
      const OverlapSemijoinOptions& options);

  const Schema& schema() const override { return x_child_->schema(); }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {x_child_.get(), y_child_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  BatchOverlapSemijoin(std::unique_ptr<TupleStream> x,
                       std::unique_ptr<TupleStream> y, SweepFrame frame,
                       std::unique_ptr<OrderValidator> x_validator,
                       std::unique_ptr<OrderValidator> y_validator,
                       size_t batch_size);

  std::unique_ptr<TupleStream> x_child_;
  std::unique_ptr<TupleStream> y_child_;
  SweepFrame frame_;
  std::unique_ptr<OrderValidator> x_validator_;
  std::unique_ptr<OrderValidator> y_validator_;
  BatchReader x_;
  BatchReader y_;
};

/// The paper's two-buffer containment semijoin (Section 4.2.2): containers
/// keyed by ValidFrom ascending and containees by ValidTo ascending (in
/// sweep coordinates); the workspace is exactly the two peeks, emission
/// order follows the emitted stream's input order.
class BatchTwoBufferContainmentSemijoin final : public BatchOperator {
 public:
  static Result<std::unique_ptr<TupleStream>> Create(
      std::unique_ptr<TupleStream> container,
      std::unique_ptr<TupleStream> containee, bool emit_container,
      SweepFrame frame, TemporalSortOrder container_order,
      TemporalSortOrder containee_order, bool verify_order,
      size_t batch_size);

  const Schema& schema() const override {
    return emit_container_ ? container_child_->schema()
                           : containee_child_->schema();
  }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {container_child_.get(), containee_child_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  BatchTwoBufferContainmentSemijoin(
      std::unique_ptr<TupleStream> container,
      std::unique_ptr<TupleStream> containee, bool emit_container,
      SweepFrame frame, std::unique_ptr<OrderValidator> container_validator,
      std::unique_ptr<OrderValidator> containee_validator,
      size_t batch_size);

  std::unique_ptr<TupleStream> container_child_;
  std::unique_ptr<TupleStream> containee_child_;
  bool emit_container_;
  SweepFrame frame_;
  std::unique_ptr<OrderValidator> container_validator_;
  std::unique_ptr<OrderValidator> containee_validator_;
  BatchReader container_;
  BatchReader containee_;
};

/// The sweep containment semijoin for inputs both keyed by ValidFrom
/// ascending (in sweep coordinates): state is bounded by the containers
/// spanning the sweep position — characterization (c) of Table 1.
/// emit-container mode holds pending containers in a LazyDeletionQueue
/// (FIFO, matched flags, emitted in input order); emit-containee mode
/// holds witness spans in a GaplessWorkspace, or — with the frontier
/// extension (not in the paper) — only the Pareto staircase of
/// non-dominated container spans, searched by binary search. Every mode
/// discards containers that are dead on arrival.
class BatchSweepContainmentSemijoin final : public BatchOperator {
 public:
  /// `use_frontier_state` applies to the containee-emitting mode only.
  static Result<std::unique_ptr<TupleStream>> Create(
      std::unique_ptr<TupleStream> container,
      std::unique_ptr<TupleStream> containee, bool emit_container,
      SweepFrame frame, TemporalSortOrder container_order,
      TemporalSortOrder containee_order, bool verify_order,
      bool use_frontier_state, size_t batch_size);

  const Schema& schema() const override {
    return emit_container_ ? container_child_->schema()
                           : containee_child_->schema();
  }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {container_child_.get(), containee_child_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  BatchSweepContainmentSemijoin(
      std::unique_ptr<TupleStream> container,
      std::unique_ptr<TupleStream> containee, bool emit_container,
      SweepFrame frame, std::unique_ptr<OrderValidator> container_validator,
      std::unique_ptr<OrderValidator> containee_validator,
      bool use_frontier_state, size_t batch_size);

  /// emit-container mode: emits matched fronts and drops dead ones;
  /// returns true when `out` reached `max_rows` (resume on the next call).
  bool PopDecided(TupleBatch* out, size_t max_rows);
  /// emit-containee mode: retains a container span for witnessing.
  void Retain(const Interval& span);
  /// emit-containee mode: drops containers dead at the containee `b`'s
  /// start, then reports whether a retained container strictly contains b.
  bool Witnessed(const Interval& b);

  std::unique_ptr<TupleStream> container_child_;
  std::unique_ptr<TupleStream> containee_child_;
  bool emit_container_;
  SweepFrame frame_;
  std::unique_ptr<OrderValidator> container_validator_;
  std::unique_ptr<OrderValidator> containee_validator_;
  BatchReader container_;
  BatchReader containee_;
  bool use_frontier_state_;
  LazyDeletionQueue pending_;  // emit-container mode.
  GaplessWorkspace spans_;     // emit-containee mode (spans only).
  // emit-containee mode with the frontier extension: the non-dominated
  // container spans, starts and ends both increasing front to back.
  std::deque<Interval> frontier_;
};

/// Single-state Contained-semijoin(X,X) (Section 4.2.3), input keyed
/// (start^, end^) in sweep coordinates: one state span.
class BatchSingleStateSelfContained final : public BatchOperator {
 public:
  BatchSingleStateSelfContained(std::unique_ptr<TupleStream> x,
                                SweepFrame frame,
                                std::unique_ptr<OrderValidator> validator,
                                size_t batch_size);

  const Schema& schema() const override { return x_child_->schema(); }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {x_child_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  std::unique_ptr<TupleStream> x_child_;
  SweepFrame frame_;
  std::unique_ptr<OrderValidator> validator_;
  BatchReader x_;
  Interval state_span_{};
  bool state_valid_ = false;
};

/// Single-state Contain-semijoin(X,X), input keyed (start v, end v) in
/// sweep coordinates: the state is the running minimum-end span.
class BatchSingleStateSelfContain final : public BatchOperator {
 public:
  BatchSingleStateSelfContain(std::unique_ptr<TupleStream> x,
                              SweepFrame frame,
                              std::unique_ptr<OrderValidator> validator,
                              size_t batch_size);

  const Schema& schema() const override { return x_child_->schema(); }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {x_child_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  std::unique_ptr<TupleStream> x_child_;
  SweepFrame frame_;
  std::unique_ptr<OrderValidator> validator_;
  BatchReader x_;
  Interval state_span_{};
  bool state_valid_ = false;
};

/// Pending-queue Contain-semijoin(X,X) for the start^ order (Table 3 row 1
/// (b)): pending queue with matched flags, containers emitted in input
/// order.
class BatchSweepSelfContain final : public BatchOperator {
 public:
  BatchSweepSelfContain(std::unique_ptr<TupleStream> x, SweepFrame frame,
                        std::unique_ptr<OrderValidator> validator,
                        size_t batch_size);

  const Schema& schema() const override { return x_child_->schema(); }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {x_child_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  bool PopDecided(TupleBatch* out, size_t max_rows);

  std::unique_ptr<TupleStream> x_child_;
  SweepFrame frame_;
  std::unique_ptr<OrderValidator> validator_;
  BatchReader x_;
  LazyDeletionQueue pending_;
};

}  // namespace internal
}  // namespace tempus

#endif  // TEMPUS_JOIN_BATCH_SWEEP_H_

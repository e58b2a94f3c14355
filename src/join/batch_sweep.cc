#include "join/batch_sweep.h"

#include <cmath>
#include <utility>

namespace tempus {
namespace internal {

namespace {

/// Emits the reader's peek into `out` — zero-copy for stable rows, an
/// owned copy otherwise — recording the raw (unmapped) lifespan so
/// downstream batch consumers see producer-coordinate spans. Consumes the
/// peek.
void EmitPeek(BatchReader* reader, TupleBatch* out) {
  if (reader->stable()) {
    out->PushStable(&reader->row(), reader->raw_span());
  } else {
    out->PushOwnedCopy(reader->row(), reader->raw_span());
  }
  reader->Consume();
}

}  // namespace

Result<bool> BatchReader::FillSlow() {
  if (done_) return false;
  while (cursor_ >= batch_.ActiveSize()) {
    TEMPUS_ASSIGN_OR_RETURN(const bool more,
                            child_->NextBatch(&batch_, batch_size_));
    cursor_ = 0;
    if (!more) {
      done_ = true;
      row_ = nullptr;
      return false;
    }
  }
  // A row is now buffered; the inline fast path peeks it.
  return Fill();
}

// ---------------------------------------------------------------------------
// BatchPairSweepJoin

BatchPairSweepJoin::BatchPairSweepJoin(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    const Spec& spec, SweepFrame frame, Schema schema,
    std::unique_ptr<OrderValidator> left_validator,
    std::unique_ptr<OrderValidator> right_validator, size_t batch_size)
    : BatchOperator(batch_size),
      left_child_(std::move(left)),
      right_child_(std::move(right)),
      spec_(spec),
      frame_(frame),
      schema_(std::move(schema)),
      left_validator_(std::move(left_validator)),
      right_validator_(std::move(right_validator)) {
  intersect_fast_ =
      !spec_.contain && spec_.frame_mask == AllenMask::Intersecting();
  left_.Attach(left_child_.get(), frame_, left_validator_.get(), batch_size_,
               &metrics_.tuples_read_left);
  right_.Attach(right_child_.get(), frame_, right_validator_.get(),
                batch_size_, &metrics_.tuples_read_right);
}

Result<std::unique_ptr<TupleStream>> BatchPairSweepJoin::Create(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    const Spec& spec, SweepFrame frame, TemporalSortOrder left_order,
    TemporalSortOrder right_order, bool verify_order,
    const JoinNaming& naming, size_t batch_size, const char* left_label,
    const char* right_label) {
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef left_ref,
                          LifespanRef::ForSchema(left->schema()));
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef right_ref,
                          LifespanRef::ForSchema(right->schema()));
  TEMPUS_ASSIGN_OR_RETURN(
      Schema schema,
      MakeJoinOutputSchema(left->schema(), right->schema(), naming));
  std::unique_ptr<OrderValidator> lv;
  std::unique_ptr<OrderValidator> rv;
  if (verify_order) {
    lv = std::make_unique<OrderValidator>(left_ref, left_order, left_label);
    rv = std::make_unique<OrderValidator>(right_ref, right_order,
                                          right_label);
  }
  return std::unique_ptr<TupleStream>(new BatchPairSweepJoin(
      std::move(left), std::move(right), spec, frame, std::move(schema),
      std::move(lv), std::move(rv), batch_size));
}

Status BatchPairSweepJoin::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(left_child_->Open());
  TEMPUS_RETURN_IF_ERROR(right_child_->Open());
  ++metrics_.passes_left;
  ++metrics_.passes_right;
  left_state_.Clear();
  right_state_.Clear();
  metrics_.ResetWorkspace();
  left_.Reset();
  right_.Reset();
  probe_row_ = nullptr;
  probing_ = false;
  match_idx_.clear();
  match_pos_ = 0;
  left_reads_ = right_reads_ = 0;
  ResetAdapter();
  if (left_validator_) left_validator_->Reset();
  if (right_validator_) right_validator_->Reset();
  return Status::Ok();
}

void BatchPairSweepJoin::ScanMatches(const GaplessWorkspace& targets) {
  match_idx_.clear();
  match_pos_ = 0;
  const size_t n = targets.size();
  // One comparison per live entry: the whole state is scanned up front,
  // and emission then walks only the matches.
  metrics_.comparisons += n;
  const TimePoint* starts = targets.starts_data();
  const TimePoint* ends = targets.ends_data();
  const TimePoint probe_start = probe_span_.start;
  const TimePoint probe_end = probe_span_.end;
  if (spec_.contain) {
    // Containee strictly during container (Figure 2). The predicate is
    // hoisted out of the loop so the scan is two branchless compares over
    // the dense endpoint columns.
    if (probe_is_left_) {
      for (size_t i = 0; i < n; ++i) {
        if (probe_start < starts[i] && ends[i] < probe_end) {
          match_idx_.push_back(static_cast<uint32_t>(i));
        }
      }
    } else {
      for (size_t i = 0; i < n; ++i) {
        if (starts[i] < probe_start && probe_end < ends[i]) {
          match_idx_.push_back(static_cast<uint32_t>(i));
        }
      }
    }
    return;
  }
  if (intersect_fast_) {
    // Share-a-point is symmetric, so no probe-side branch either.
    for (size_t i = 0; i < n; ++i) {
      if (probe_start < ends[i] && starts[i] < probe_end) {
        match_idx_.push_back(static_cast<uint32_t>(i));
      }
    }
    return;
  }
  for (size_t i = 0; i < n; ++i) {
    const Interval other(starts[i], ends[i]);
    const Interval& x = probe_is_left_ ? probe_span_ : other;
    const Interval& y = probe_is_left_ ? other : probe_span_;
    if (spec_.frame_mask.HoldsBetween(x, y)) {
      match_idx_.push_back(static_cast<uint32_t>(i));
    }
  }
}

void BatchPairSweepJoin::CollectGarbage() {
  ++metrics_.gc_checks;
  // Left (container/X) state. The min-end tracker skips the sweep when no
  // entry is dead — a skipped sweep would have removed nothing, so the
  // state content is the same as under an unconditional sweep.
  if (right_.exhausted()) {
    metrics_.SubWorkspace(left_state_.size());
    left_state_.Clear();
  } else if (right_.has_peek()) {
    const TimePoint bound =
        spec_.right_key_by_end ? right_.span().end : right_.span().start;
    if (spec_.contain) {
      if (left_state_.min_end() <= bound) {
        metrics_.comparisons += left_state_.size();
        metrics_.SubWorkspace(left_state_.EraseDead(
            [bound](TimePoint, TimePoint end) { return end <= bound; }));
      }
    } else {
      const bool keep_touch = spec_.keep_left_touch;
      const bool any_dead = keep_touch ? left_state_.min_end() < bound
                                       : left_state_.min_end() <= bound;
      if (any_dead) {
        metrics_.SubWorkspace(left_state_.EraseDead(
            [bound, keep_touch](TimePoint, TimePoint end) {
              return keep_touch ? end < bound : end <= bound;
            }));
      }
    }
  }
  // Right (containee/Y) state.
  if (left_.exhausted()) {
    metrics_.SubWorkspace(right_state_.size());
    right_state_.Clear();
  } else if (left_.has_peek()) {
    const TimePoint bound = left_.span().start;
    if (spec_.contain) {
      if (right_state_.min_start() <= bound) {
        metrics_.comparisons += right_state_.size();
        metrics_.SubWorkspace(right_state_.EraseDead(
            [bound](TimePoint start, TimePoint) { return start <= bound; }));
      }
    } else {
      const bool keep_touch = spec_.keep_right_touch;
      const bool any_dead = keep_touch ? right_state_.min_end() < bound
                                       : right_state_.min_end() <= bound;
      if (any_dead) {
        metrics_.SubWorkspace(right_state_.EraseDead(
            [bound, keep_touch](TimePoint, TimePoint end) {
              return keep_touch ? end < bound : end <= bound;
            }));
      }
    }
  }
}

size_t BatchPairSweepJoin::EstimateDisposals(bool read_left) const {
  // Project the side's head one mean inter-arrival ahead and count the
  // opposite-state tuples that would become disposable: containees
  // starting by then (reading X), containers ending by then (reading Y).
  auto mean_gap = [](double configured, uint64_t reads, TimePoint first,
                     TimePoint last) {
    if (configured > 0.0) return configured;
    if (reads < 2) return 0.0;
    return static_cast<double>(last - first) /
           static_cast<double>(reads - 1);
  };
  const BatchReader& reader = read_left ? left_ : right_;
  const TimePoint head = reader.span().start;
  const double gap =
      read_left ? mean_gap(spec_.left_mean_interarrival, left_reads_,
                           left_first_key_, head)
                : mean_gap(spec_.right_mean_interarrival, right_reads_,
                           right_first_key_, head);
  const TimePoint bound = head + static_cast<TimePoint>(std::llround(gap));
  const GaplessWorkspace& state = read_left ? right_state_ : left_state_;
  const TimePoint* keys =
      read_left ? state.starts_data() : state.ends_data();
  size_t count = 0;
  for (size_t i = 0; i < state.size(); ++i) {
    if (keys[i] <= bound) ++count;
  }
  return count;
}

Result<bool> BatchPairSweepJoin::Advance() {
  if (!left_.has_peek() && !left_.done()) {
    TEMPUS_ASSIGN_OR_RETURN(const bool filled, left_.Fill());
    if (filled && spec_.lambda_heuristic && left_reads_++ == 0) {
      left_first_key_ = left_.span().start;
    }
  }
  if (!right_.has_peek() && !right_.done()) {
    TEMPUS_ASSIGN_OR_RETURN(const bool filled, right_.Fill());
    if (filled && spec_.lambda_heuristic && right_reads_++ == 0) {
      right_first_key_ = right_.span().start;
    }
  }
  CollectGarbage();
  if (!left_.has_peek() && !right_.has_peek()) return false;
  if (!left_.has_peek() && left_state_.empty()) return false;
  if (!right_.has_peek() && right_state_.empty()) return false;

  bool use_left;
  if (!left_.has_peek()) {
    use_left = false;
  } else if (!right_.has_peek()) {
    use_left = true;
  } else if (spec_.lambda_heuristic) {
    // Read the side expected to let more state be discarded; ties fall
    // back to the timestamp sweep.
    const size_t left_gain = EstimateDisposals(/*read_left=*/true);
    const size_t right_gain = EstimateDisposals(/*read_left=*/false);
    use_left = left_gain != right_gain
                   ? left_gain > right_gain
                   : left_.span().start <= right_.span().start;
  } else {
    const TimePoint right_key =
        spec_.right_key_by_end ? right_.span().end : right_.span().start;
    use_left = left_.span().start <= right_key;
  }

  BatchReader& reader = use_left ? left_ : right_;
  probe_row_ = &reader.row();
  probe_span_ = reader.span();
  probe_is_left_ = use_left;
  probe_stable_ = reader.stable();
  probing_ = true;
  ScanMatches(use_left ? right_state_ : left_state_);
  reader.Consume();
  return true;
}

Result<bool> BatchPairSweepJoin::ProduceBatch(TupleBatch* out,
                                              size_t max_rows) {
  const LifespanRef* lifespan = BatchLifespan();
  while (true) {
    if (probing_) {
      const GaplessWorkspace& targets =
          probe_is_left_ ? right_state_ : left_state_;
      while (match_pos_ < match_idx_.size()) {
        const size_t i = match_idx_[match_pos_++];
        if (probe_is_left_) {
          out->PushOwnedConcat(*probe_row_, targets.tuple(i), lifespan);
        } else {
          out->PushOwnedConcat(targets.tuple(i), *probe_row_, lifespan);
        }
        ++metrics_.tuples_emitted;
        if (out->size() >= max_rows) return true;
      }
      const bool opposite_finished =
          probe_is_left_ ? right_.exhausted() : left_.exhausted();
      if (!opposite_finished) {
        GaplessWorkspace& state =
            probe_is_left_ ? left_state_ : right_state_;
        // Stable rows outlive this stream, so retention is a pointer; all
        // other rows die with the reader's batch and are copied into a
        // recycled workspace slot.
        if (probe_stable_) {
          state.InsertStable(probe_row_, probe_span_);
        } else {
          state.InsertOwnedCopy(*probe_row_, probe_span_);
        }
        metrics_.AddWorkspace();
      }
      probe_row_ = nullptr;
      probing_ = false;
    }
    TEMPUS_ASSIGN_OR_RETURN(const bool more, Advance());
    if (!more) return !out->empty();
  }
}

// ---------------------------------------------------------------------------
// BatchOverlapSemijoin

BatchOverlapSemijoin::BatchOverlapSemijoin(
    std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
    SweepFrame frame, std::unique_ptr<OrderValidator> x_validator,
    std::unique_ptr<OrderValidator> y_validator, size_t batch_size)
    : BatchOperator(batch_size),
      x_child_(std::move(x)),
      y_child_(std::move(y)),
      frame_(frame),
      x_validator_(std::move(x_validator)),
      y_validator_(std::move(y_validator)) {
  x_.Attach(x_child_.get(), frame_, x_validator_.get(), batch_size_,
            &metrics_.tuples_read_left);
  y_.Attach(y_child_.get(), frame_, y_validator_.get(), batch_size_,
            &metrics_.tuples_read_right);
}

Result<std::unique_ptr<TupleStream>> BatchOverlapSemijoin::Create(
    std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
    const OverlapSemijoinOptions& options) {
  SweepFrame frame;
  if (options.order == kByValidFromAsc) {
    frame.mirrored = false;
  } else if (options.order == kByValidToDesc) {
    frame.mirrored = true;
  } else {
    return Status::FailedPrecondition(
        "Overlap-semijoin requires both inputs sorted ValidFrom^ (or "
        "mirror ValidTo v); got " +
        options.order.ToString());
  }
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef x_ref,
                          LifespanRef::ForSchema(x->schema()));
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef y_ref,
                          LifespanRef::ForSchema(y->schema()));
  std::unique_ptr<OrderValidator> xv;
  std::unique_ptr<OrderValidator> yv;
  if (options.verify_input_order) {
    xv = std::make_unique<OrderValidator>(x_ref, options.order,
                                          "overlap semijoin X input");
    yv = std::make_unique<OrderValidator>(y_ref, options.order,
                                          "overlap semijoin Y input");
  }
  return std::unique_ptr<TupleStream>(new BatchOverlapSemijoin(
      std::move(x), std::move(y), frame, std::move(xv), std::move(yv),
      options.batch_size));
}

Status BatchOverlapSemijoin::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(x_child_->Open());
  TEMPUS_RETURN_IF_ERROR(y_child_->Open());
  ++metrics_.passes_left;
  ++metrics_.passes_right;
  x_.Reset();
  y_.Reset();
  ResetAdapter();
  if (x_validator_) x_validator_->Reset();
  if (y_validator_) y_validator_->Reset();
  return Status::Ok();
}

Result<bool> BatchOverlapSemijoin::ProduceBatch(TupleBatch* out,
                                                size_t max_rows) {
  while (true) {
    if (!x_.has_peek()) {
      if (x_.done()) return !out->empty();
      TEMPUS_ASSIGN_OR_RETURN(const bool has, x_.Fill());
      if (!has) return !out->empty();
    }
    if (!y_.has_peek()) {
      // No witness can exist for any future x.
      if (y_.done()) return !out->empty();
      TEMPUS_ASSIGN_OR_RETURN(const bool has, y_.Fill());
      if (!has) return !out->empty();
    }
    ++metrics_.comparisons;
    const Interval& xs = x_.span();
    const Interval& ys = y_.span();
    if (xs.start < ys.end && ys.start < xs.end) {
      // Lifespans intersect: emit x once; y may witness further x tuples.
      EmitPeek(&x_, out);
      ++metrics_.tuples_emitted;
      if (out->size() >= max_rows) return true;
    } else if (ys.end <= xs.start) {
      // y ends at/before every remaining x starts: discard y.
      y_.Consume();
    } else {
      // x ends at/before y starts; future y start even later.
      x_.Consume();
    }
  }
}

// ---------------------------------------------------------------------------
// BatchTwoBufferContainmentSemijoin

BatchTwoBufferContainmentSemijoin::BatchTwoBufferContainmentSemijoin(
    std::unique_ptr<TupleStream> container,
    std::unique_ptr<TupleStream> containee, bool emit_container,
    SweepFrame frame, std::unique_ptr<OrderValidator> container_validator,
    std::unique_ptr<OrderValidator> containee_validator, size_t batch_size)
    : BatchOperator(batch_size),
      container_child_(std::move(container)),
      containee_child_(std::move(containee)),
      emit_container_(emit_container),
      frame_(frame),
      container_validator_(std::move(container_validator)),
      containee_validator_(std::move(containee_validator)) {
  container_.Attach(container_child_.get(), frame_,
                    container_validator_.get(), batch_size_,
                    &metrics_.tuples_read_left);
  containee_.Attach(containee_child_.get(), frame_,
                    containee_validator_.get(), batch_size_,
                    &metrics_.tuples_read_right);
}

Result<std::unique_ptr<TupleStream>>
BatchTwoBufferContainmentSemijoin::Create(
    std::unique_ptr<TupleStream> container,
    std::unique_ptr<TupleStream> containee, bool emit_container,
    SweepFrame frame, TemporalSortOrder container_order,
    TemporalSortOrder containee_order, bool verify_order,
    size_t batch_size) {
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef container_ref,
                          LifespanRef::ForSchema(container->schema()));
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef containee_ref,
                          LifespanRef::ForSchema(containee->schema()));
  std::unique_ptr<OrderValidator> cv;
  std::unique_ptr<OrderValidator> ev;
  if (verify_order) {
    cv = std::make_unique<OrderValidator>(container_ref, container_order,
                                          "containment semijoin container");
    ev = std::make_unique<OrderValidator>(containee_ref, containee_order,
                                          "containment semijoin containee");
  }
  return std::unique_ptr<TupleStream>(new BatchTwoBufferContainmentSemijoin(
      std::move(container), std::move(containee), emit_container, frame,
      std::move(cv), std::move(ev), batch_size));
}

Status BatchTwoBufferContainmentSemijoin::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(container_child_->Open());
  TEMPUS_RETURN_IF_ERROR(containee_child_->Open());
  ++metrics_.passes_left;
  ++metrics_.passes_right;
  container_.Reset();
  containee_.Reset();
  ResetAdapter();
  if (container_validator_) container_validator_->Reset();
  if (containee_validator_) containee_validator_->Reset();
  return Status::Ok();
}

Result<bool> BatchTwoBufferContainmentSemijoin::ProduceBatch(
    TupleBatch* out, size_t max_rows) {
  while (true) {
    if (!container_.has_peek()) {
      // Containees cannot match once containers are exhausted (and every
      // emitted containee was emitted as soon as it matched).
      if (container_.done()) return !out->empty();
      TEMPUS_ASSIGN_OR_RETURN(const bool has, container_.Fill());
      if (!has) return !out->empty();
    }
    if (!containee_.has_peek()) {
      if (containee_.done()) return !out->empty();
      TEMPUS_ASSIGN_OR_RETURN(const bool has, containee_.Fill());
      if (!has) return !out->empty();
    }
    ++metrics_.comparisons;
    if (containee_.span().end >= container_.span().end) {
      // No containee ends inside the current container anymore: advance
      // the container, retain the containee buffer.
      container_.Consume();
      continue;
    }
    if (container_.span().start < containee_.span().start) {
      // Strict containment holds; each emitted-side tuple emits once.
      EmitPeek(emit_container_ ? &container_ : &containee_, out);
      ++metrics_.tuples_emitted;
      if (out->size() >= max_rows) return true;
      continue;
    }
    // containee.start <= container.start: no current or future container
    // can strictly contain it -- discard.
    containee_.Consume();
  }
}

// ---------------------------------------------------------------------------
// BatchSweepContainmentSemijoin

BatchSweepContainmentSemijoin::BatchSweepContainmentSemijoin(
    std::unique_ptr<TupleStream> container,
    std::unique_ptr<TupleStream> containee, bool emit_container,
    SweepFrame frame, std::unique_ptr<OrderValidator> container_validator,
    std::unique_ptr<OrderValidator> containee_validator,
    bool use_frontier_state, size_t batch_size)
    : BatchOperator(batch_size),
      container_child_(std::move(container)),
      containee_child_(std::move(containee)),
      emit_container_(emit_container),
      frame_(frame),
      container_validator_(std::move(container_validator)),
      containee_validator_(std::move(containee_validator)),
      use_frontier_state_(use_frontier_state) {
  container_.Attach(container_child_.get(), frame_,
                    container_validator_.get(), batch_size_,
                    &metrics_.tuples_read_left);
  containee_.Attach(containee_child_.get(), frame_,
                    containee_validator_.get(), batch_size_,
                    &metrics_.tuples_read_right);
}

Result<std::unique_ptr<TupleStream>> BatchSweepContainmentSemijoin::Create(
    std::unique_ptr<TupleStream> container,
    std::unique_ptr<TupleStream> containee, bool emit_container,
    SweepFrame frame, TemporalSortOrder container_order,
    TemporalSortOrder containee_order, bool verify_order,
    bool use_frontier_state, size_t batch_size) {
  if (use_frontier_state && emit_container) {
    return Status::InvalidArgument(
        "frontier state applies to the containee-emitting sweep semijoin");
  }
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef container_ref,
                          LifespanRef::ForSchema(container->schema()));
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef containee_ref,
                          LifespanRef::ForSchema(containee->schema()));
  std::unique_ptr<OrderValidator> cv;
  std::unique_ptr<OrderValidator> ev;
  if (verify_order) {
    cv = std::make_unique<OrderValidator>(container_ref, container_order,
                                          "sweep semijoin container");
    ev = std::make_unique<OrderValidator>(containee_ref, containee_order,
                                          "sweep semijoin containee");
  }
  return std::unique_ptr<TupleStream>(new BatchSweepContainmentSemijoin(
      std::move(container), std::move(containee), emit_container, frame,
      std::move(cv), std::move(ev), use_frontier_state, batch_size));
}

Status BatchSweepContainmentSemijoin::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(container_child_->Open());
  TEMPUS_RETURN_IF_ERROR(containee_child_->Open());
  ++metrics_.passes_left;
  ++metrics_.passes_right;
  pending_.Clear();
  spans_.Clear();
  frontier_.clear();
  metrics_.ResetWorkspace();
  container_.Reset();
  containee_.Reset();
  ResetAdapter();
  if (container_validator_) container_validator_->Reset();
  if (containee_validator_) containee_validator_->Reset();
  return Status::Ok();
}

bool BatchSweepContainmentSemijoin::PopDecided(TupleBatch* out,
                                               size_t max_rows) {
  if (!pending_.empty()) ++metrics_.gc_checks;
  while (!pending_.empty()) {
    if (pending_.matched_at(0)) {
      // Stored spans are in sweep coordinates; Map is an involution, so
      // re-mapping restores the raw lifespan for the output batch.
      const Interval raw = frame_.Map(
          Interval(pending_.start_at(0), pending_.end_at(0)));
      if (pending_.stable_at(0)) {
        out->PushStable(&pending_.tuple_at(0), raw);
      } else {
        out->PushOwnedCopy(pending_.tuple_at(0), raw);
      }
      pending_.PopFront();
      metrics_.SubWorkspace();
      ++metrics_.tuples_emitted;
      if (out->size() >= max_rows) return true;
      continue;
    }
    const bool dead = containee_.exhausted() ||
                      (containee_.has_peek() &&
                       pending_.end_at(0) <= containee_.span().start);
    if (!dead) break;
    pending_.PopFront();
    metrics_.SubWorkspace();
  }
  return false;
}

void BatchSweepContainmentSemijoin::Retain(const Interval& span) {
  if (!use_frontier_state_) {
    // Only spans are consulted for witnessing; skip the payload copy.
    spans_.Insert(Tuple(), span);
    metrics_.AddWorkspace();
    return;
  }
  // Frontier maintenance: keep only non-dominated containers. Arrivals are
  // (start, end)-lexicographic, so the new container has the largest
  // start; it is dominated iff the current largest end (the back) already
  // covers it, and it dominates only equal-start predecessors.
  ++metrics_.comparisons;
  if (!frontier_.empty() && frontier_.back().end >= span.end) return;
  while (!frontier_.empty() && frontier_.back().start == span.start) {
    frontier_.pop_back();
    metrics_.SubWorkspace();
  }
  frontier_.push_back(span);
  metrics_.AddWorkspace();
}

bool BatchSweepContainmentSemijoin::Witnessed(const Interval& b) {
  ++metrics_.gc_checks;
  if (use_frontier_state_) {
    while (!frontier_.empty() && frontier_.front().end <= b.start) {
      frontier_.pop_front();
      metrics_.SubWorkspace();
    }
    // Ends increase along the frontier: the best witness among containers
    // with start < b.start is the last such entry.
    size_t lo = 0;
    size_t hi = frontier_.size();
    while (lo < hi) {
      const size_t mid = lo + (hi - lo) / 2;
      ++metrics_.comparisons;
      if (frontier_[mid].start < b.start) {
        lo = mid + 1;
      } else {
        hi = mid;
      }
    }
    return lo > 0 && frontier_[lo - 1].end > b.end;
  }
  // The min-end tracker skips the GC sweep when no container is dead.
  if (spans_.min_end() <= b.start) {
    metrics_.SubWorkspace(spans_.EraseDead(
        [&b](TimePoint, TimePoint end) { return end <= b.start; }));
  }
  for (size_t i = 0; i < spans_.size(); ++i) {
    ++metrics_.comparisons;
    if (spans_.start(i) < b.start && spans_.end(i) > b.end) return true;
  }
  return false;
}

Result<bool> BatchSweepContainmentSemijoin::ProduceBatch(TupleBatch* out,
                                                         size_t max_rows) {
  while (true) {
    if (!container_.has_peek() && !container_.done()) {
      TEMPUS_ASSIGN_OR_RETURN(const bool filled, container_.Fill());
      (void)filled;
    }
    if (!containee_.has_peek() && !containee_.done()) {
      TEMPUS_ASSIGN_OR_RETURN(const bool filled, containee_.Fill());
      (void)filled;
    }

    if (emit_container_) {
      if (PopDecided(out, max_rows)) return true;
      if (containee_.exhausted()) {
        // No witnesses remain: PopDecided drained every pending container,
        // and unread containers can never match.
        return !out->empty();
      }
    } else if (!containee_.has_peek()) {
      // All containees processed; nothing left to emit.
      return !out->empty();
    }

    // Consume containers up to the containee's start position.
    if (container_.has_peek() &&
        (!containee_.has_peek() ||
         container_.span().start <= containee_.span().start)) {
      if (containee_.exhausted()) {
        // Witness-less container: discard instead of retaining.
        container_.Consume();
        continue;
      }
      if (containee_.has_peek() &&
          container_.span().end <= containee_.span().start) {
        // Dead on arrival: every remaining containee starts at or after
        // the sweep position, so this container can never witness (or be
        // emitted for) anything. Retaining it would let the state grow
        // past the tuples spanning the sweep.
        container_.Consume();
        continue;
      }
      if (emit_container_) {
        // Stable rows enqueue (and later emit) zero-copy; the rest copy
        // into a recycled queue slot.
        if (container_.stable()) {
          pending_.PushBackStable(&container_.row(), container_.span(),
                                  false);
        } else {
          pending_.PushBackCopy(container_.row(), container_.span(), false);
        }
        metrics_.AddWorkspace();
      } else {
        Retain(container_.span());
      }
      container_.Consume();
      continue;
    }

    if (!containee_.has_peek()) {
      // Container stream also empty (else the branch above ran); in
      // emit-container mode PopDecided drains on later iterations.
      if (!emit_container_) return !out->empty();
      if (pending_.empty() && !container_.has_peek()) return !out->empty();
      continue;
    }

    // Process the containee at the sweep position.
    const Interval b = containee_.span();
    if (emit_container_) {
      // Branchless columnar witness marking; the comparison count is
      // hoisted (one per pending entry, as in the per-entry loop).
      const size_t n = pending_.size();
      metrics_.comparisons += n;
      const TimePoint* ps = pending_.starts_data();
      const TimePoint* pe = pending_.ends_data();
      uint8_t* pm = pending_.matched_data();
      for (size_t i = 0; i < n; ++i) {
        pm[i] |= static_cast<uint8_t>(ps[i] < b.start) &
                 static_cast<uint8_t>(pe[i] > b.end);
      }
      containee_.Consume();
      continue;
    }

    if (Witnessed(b)) {
      EmitPeek(&containee_, out);
      ++metrics_.tuples_emitted;
      if (out->size() >= max_rows) return true;
      continue;
    }
    containee_.Consume();
  }
}

// ---------------------------------------------------------------------------
// BatchSingleStateSelfContained

BatchSingleStateSelfContained::BatchSingleStateSelfContained(
    std::unique_ptr<TupleStream> x, SweepFrame frame,
    std::unique_ptr<OrderValidator> validator, size_t batch_size)
    : BatchOperator(batch_size),
      x_child_(std::move(x)),
      frame_(frame),
      validator_(std::move(validator)) {
  x_.Attach(x_child_.get(), frame_, validator_.get(), batch_size_,
            &metrics_.tuples_read_left);
}

Status BatchSingleStateSelfContained::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(x_child_->Open());
  ++metrics_.passes_left;
  state_valid_ = false;
  metrics_.ResetWorkspace();
  x_.Reset();
  ResetAdapter();
  if (validator_) validator_->Reset();
  return Status::Ok();
}

Result<bool> BatchSingleStateSelfContained::ProduceBatch(TupleBatch* out,
                                                         size_t max_rows) {
  // Section 4.2.3: one state span; each arrival either replaces it or is
  // emitted as strictly contained within it.
  while (true) {
    if (!x_.has_peek()) {
      if (x_.done()) return !out->empty();
      TEMPUS_ASSIGN_OR_RETURN(const bool has, x_.Fill());
      if (!has) return !out->empty();
    }
    const Interval span = x_.span();
    if (!state_valid_) {
      state_span_ = span;
      state_valid_ = true;
      metrics_.AddWorkspace();
      x_.Consume();
      continue;
    }
    ++metrics_.comparisons;
    if (state_span_.start == span.start) {
      // Equal starts never nest strictly; the longer lifespan covers more
      // future arrivals.
      state_span_ = span;
      x_.Consume();
      continue;
    }
    if (state_span_.end <= span.end) {
      state_span_ = span;
      x_.Consume();
      continue;
    }
    // state.start < span.start and span.end < state.end: strictly inside.
    EmitPeek(&x_, out);
    ++metrics_.tuples_emitted;
    if (out->size() >= max_rows) return true;
  }
}

// ---------------------------------------------------------------------------
// BatchSingleStateSelfContain

BatchSingleStateSelfContain::BatchSingleStateSelfContain(
    std::unique_ptr<TupleStream> x, SweepFrame frame,
    std::unique_ptr<OrderValidator> validator, size_t batch_size)
    : BatchOperator(batch_size),
      x_child_(std::move(x)),
      frame_(frame),
      validator_(std::move(validator)) {
  x_.Attach(x_child_.get(), frame_, validator_.get(), batch_size_,
            &metrics_.tuples_read_left);
}

Status BatchSingleStateSelfContain::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(x_child_->Open());
  ++metrics_.passes_left;
  state_valid_ = false;
  metrics_.ResetWorkspace();
  x_.Reset();
  ResetAdapter();
  if (validator_) validator_->Reset();
  return Status::Ok();
}

Result<bool> BatchSingleStateSelfContain::ProduceBatch(TupleBatch* out,
                                                       size_t max_rows) {
  // With starts arriving in descending order, containees precede their
  // containers and the minimum-end span seen so far is a universal witness.
  while (true) {
    if (!x_.has_peek()) {
      if (x_.done()) return !out->empty();
      TEMPUS_ASSIGN_OR_RETURN(const bool has, x_.Fill());
      if (!has) return !out->empty();
    }
    const Interval span = x_.span();
    if (!state_valid_) {
      state_span_ = span;
      state_valid_ = true;
      metrics_.AddWorkspace();
      x_.Consume();
      continue;
    }
    ++metrics_.comparisons;
    if (state_span_.start > span.start && state_span_.end < span.end) {
      EmitPeek(&x_, out);
      ++metrics_.tuples_emitted;
      if (out->size() >= max_rows) return true;
      continue;
    }
    if (span.end < state_span_.end) {
      state_span_ = span;
    }
    x_.Consume();
  }
}

// ---------------------------------------------------------------------------
// BatchSweepSelfContain

BatchSweepSelfContain::BatchSweepSelfContain(
    std::unique_ptr<TupleStream> x, SweepFrame frame,
    std::unique_ptr<OrderValidator> validator, size_t batch_size)
    : BatchOperator(batch_size),
      x_child_(std::move(x)),
      frame_(frame),
      validator_(std::move(validator)) {
  x_.Attach(x_child_.get(), frame_, validator_.get(), batch_size_,
            &metrics_.tuples_read_left);
}

Status BatchSweepSelfContain::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(x_child_->Open());
  ++metrics_.passes_left;
  pending_.Clear();
  metrics_.ResetWorkspace();
  x_.Reset();
  ResetAdapter();
  if (validator_) validator_->Reset();
  return Status::Ok();
}

bool BatchSweepSelfContain::PopDecided(TupleBatch* out, size_t max_rows) {
  if (!pending_.empty()) ++metrics_.gc_checks;
  while (!pending_.empty()) {
    if (pending_.matched_at(0)) {
      const Interval raw = frame_.Map(
          Interval(pending_.start_at(0), pending_.end_at(0)));
      if (pending_.stable_at(0)) {
        out->PushStable(&pending_.tuple_at(0), raw);
      } else {
        out->PushOwnedCopy(pending_.tuple_at(0), raw);
      }
      pending_.PopFront();
      metrics_.SubWorkspace();
      ++metrics_.tuples_emitted;
      if (out->size() >= max_rows) return true;
      continue;
    }
    const bool dead =
        x_.exhausted() ||
        (x_.has_peek() && pending_.end_at(0) <= x_.span().start);
    if (!dead) break;
    pending_.PopFront();
    metrics_.SubWorkspace();
  }
  return false;
}

Result<bool> BatchSweepSelfContain::ProduceBatch(TupleBatch* out,
                                                 size_t max_rows) {
  while (true) {
    if (!x_.has_peek() && !x_.done()) {
      TEMPUS_ASSIGN_OR_RETURN(const bool filled, x_.Fill());
      (void)filled;
    }
    if (PopDecided(out, max_rows)) return true;
    if (!x_.has_peek()) {
      // Stream exhausted; PopDecided drained everything decidable.
      if (pending_.empty()) return !out->empty();
      continue;
    }
    const Interval span = x_.span();
    // The arrival is a witness for every pending container enclosing it...
    // (branchless columnar scan; comparison count hoisted, one per entry).
    const size_t n = pending_.size();
    metrics_.comparisons += n;
    const TimePoint* ps = pending_.starts_data();
    const TimePoint* pe = pending_.ends_data();
    uint8_t* pm = pending_.matched_data();
    for (size_t i = 0; i < n; ++i) {
      pm[i] |= static_cast<uint8_t>(ps[i] < span.start) &
               static_cast<uint8_t>(pe[i] > span.end);
    }
    // ...and a candidate container for future arrivals.
    if (x_.stable()) {
      pending_.PushBackStable(&x_.row(), span, false);
    } else {
      pending_.PushBackCopy(x_.row(), span, false);
    }
    metrics_.AddWorkspace();
    x_.Consume();
  }
}

}  // namespace internal

// ---------------------------------------------------------------------------
// Factories

Result<std::unique_ptr<TupleStream>> MakeContainJoin(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    ContainJoinOptions options) {
  internal::BatchPairSweepJoin::Spec spec;
  spec.contain = true;
  SweepFrame frame;
  const TemporalSortOrder& lo = options.left_order;
  const TemporalSortOrder& ro = options.right_order;
  if (lo == kByValidFromAsc && ro == kByValidFromAsc) {
    spec.right_key_by_end = false;
    frame.mirrored = false;
  } else if (lo == kByValidToDesc && ro == kByValidToDesc) {
    spec.right_key_by_end = false;
    frame.mirrored = true;
  } else if (lo == kByValidFromAsc && ro == kByValidToAsc) {
    spec.right_key_by_end = true;
    frame.mirrored = false;
  } else if (lo == kByValidToDesc && ro == kByValidFromDesc) {
    spec.right_key_by_end = true;
    frame.mirrored = true;
  } else {
    return Status::FailedPrecondition(
        "sort ordering (" + lo.ToString() + ", " + ro.ToString() +
        ") is not appropriate for the stream Contain-join: no "
        "garbage-collection criteria (Table 1); use NoGcStreamJoin or "
        "re-sort the inputs");
  }
  if (options.read_policy == ContainJoinReadPolicy::kLambdaHeuristic) {
    if (spec.right_key_by_end) {
      return Status::FailedPrecondition(
          "the lambda read-policy heuristic applies to the (ValidFrom^, "
          "ValidFrom^) ordering only");
    }
    spec.lambda_heuristic = true;
    spec.left_mean_interarrival = options.left_mean_interarrival;
    spec.right_mean_interarrival = options.right_mean_interarrival;
  }
  return internal::BatchPairSweepJoin::Create(
      std::move(left), std::move(right), spec, frame, lo, ro,
      options.verify_input_order, options.naming, options.batch_size,
      "contain-join left input (X)", "contain-join right input (Y)");
}

Result<std::unique_ptr<TupleStream>> MakeAllenSweepJoin(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    AllenSweepJoinOptions options) {
  if (options.mask.IsEmpty()) {
    return Status::InvalidArgument("sweep join mask is empty");
  }
  if (options.mask.Contains(AllenRelation::kBefore) ||
      options.mask.Contains(AllenRelation::kAfter)) {
    return Status::FailedPrecondition(
        "before/after admit no garbage-collection criterion under any sort "
        "ordering (Section 4.2.4); use BeforeJoinStream");
  }
  SweepFrame frame;
  if (options.left_order == kByValidFromAsc &&
      options.right_order == kByValidFromAsc) {
    frame.mirrored = false;
  } else if (options.left_order == kByValidToDesc &&
             options.right_order == kByValidToDesc) {
    frame.mirrored = true;
  } else {
    return Status::FailedPrecondition(
        "sort ordering (" + options.left_order.ToString() + ", " +
        options.right_order.ToString() +
        ") is not appropriate for the sweep join (Table 2): both inputs "
        "must be ValidFrom^ (or both ValidTo v)");
  }
  internal::BatchPairSweepJoin::Spec spec;
  spec.contain = false;
  spec.frame_mask = frame.mirrored ? options.mask.Mirrored() : options.mask;
  // An x in state survives for future y exactly while some mask relation
  // can still hold; `meets` is the only one alive at x.end == y.start.
  spec.keep_left_touch = spec.frame_mask.Contains(AllenRelation::kMeets);
  spec.keep_right_touch = spec.frame_mask.Contains(AllenRelation::kMetBy);
  return internal::BatchPairSweepJoin::Create(
      std::move(left), std::move(right), spec, frame, options.left_order,
      options.right_order, options.verify_input_order, options.naming,
      options.batch_size, "allen sweep join left input",
      "allen sweep join right input");
}

Result<std::unique_ptr<TupleStream>> MakeOverlapSemijoin(
    std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
    OverlapSemijoinOptions options) {
  return internal::BatchOverlapSemijoin::Create(std::move(x), std::move(y),
                                                options);
}

}  // namespace tempus

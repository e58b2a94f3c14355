#include "semantic/set_ops.h"

#include <algorithm>

namespace tempus {

namespace {

Status CheckEqualSchemas(const Schema& left, const Schema& right,
                         const char* what) {
  if (!left.Equals(right)) {
    return Status::FailedPrecondition(std::string("sequenced ") + what +
                                      " requires equal schemas, got " +
                                      left.ToString() + " vs " +
                                      right.ToString());
  }
  return Status::Ok();
}

}  // namespace

// ---------------------------------------------------------------------------
// SequencedUnionStream

SequencedUnionStream::SequencedUnionStream(std::unique_ptr<TupleStream> left,
                                           std::unique_ptr<TupleStream> right,
                                           LifespanRef lifespan,
                                           bool verify_input_order)
    : BatchOperator(/*batch_size=*/0),
      left_(std::move(left)),
      right_(std::move(right)),
      lifespan_(lifespan) {
  if (verify_input_order) {
    left_validator_ = std::make_unique<OrderValidator>(
        lifespan_, kByValidFromAsc, "union left input");
    right_validator_ = std::make_unique<OrderValidator>(
        lifespan_, kByValidFromAsc, "union right input");
  }
}

Result<std::unique_ptr<SequencedUnionStream>> SequencedUnionStream::Create(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    bool verify_input_order) {
  TEMPUS_RETURN_IF_ERROR(
      CheckEqualSchemas(left->schema(), right->schema(), "union"));
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef lifespan,
                          LifespanRef::ForSchema(left->schema()));
  return std::unique_ptr<SequencedUnionStream>(new SequencedUnionStream(
      std::move(left), std::move(right), lifespan, verify_input_order));
}

Status SequencedUnionStream::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(left_->Open());
  TEMPUS_RETURN_IF_ERROR(right_->Open());
  ++metrics_.passes_left;
  ++metrics_.passes_right;
  left_batch_.Clear();
  right_batch_.Clear();
  left_batch_pos_ = right_batch_pos_ = 0;
  left_batch_done_ = right_batch_done_ = false;
  ResetAdapter();
  if (left_validator_) left_validator_->Reset();
  if (right_validator_) right_validator_->Reset();
  return Status::Ok();
}

Result<bool> SequencedUnionStream::Refill(bool left_side) {
  TupleStream* stream = left_side ? left_.get() : right_.get();
  TupleBatch* batch = left_side ? &left_batch_ : &right_batch_;
  size_t* pos = left_side ? &left_batch_pos_ : &right_batch_pos_;
  bool* done = left_side ? &left_batch_done_ : &right_batch_done_;
  if (*done) return false;
  TEMPUS_ASSIGN_OR_RETURN(bool more, stream->NextBatch(batch, batch_size_));
  *pos = 0;
  if (!more) {
    *done = true;
    return false;
  }
  auto& read =
      left_side ? metrics_.tuples_read_left : metrics_.tuples_read_right;
  read += batch->ActiveSize();
  OrderValidator* validator =
      left_side ? left_validator_.get() : right_validator_.get();
  if (validator != nullptr) {
    for (size_t i = 0; i < batch->ActiveSize(); ++i) {
      TEMPUS_RETURN_IF_ERROR(
          validator->CheckSpan(batch->span(batch->ActiveIndex(i))));
    }
  }
  return true;
}

Result<bool> SequencedUnionStream::ProduceBatch(TupleBatch* out,
                                                size_t max_rows) {
  // Columnar merge: walk the two input batches' span columns and copy the
  // winning rows into recycled owned slots. Input batch storage is
  // recycled on the producer's next fill, so rows must be copied out.
  while (out->size() < max_rows) {
    if (left_batch_pos_ >= left_batch_.ActiveSize() && !left_batch_done_) {
      TEMPUS_ASSIGN_OR_RETURN(bool more, Refill(/*left_side=*/true));
      (void)more;
    }
    if (right_batch_pos_ >= right_batch_.ActiveSize() && !right_batch_done_) {
      TEMPUS_ASSIGN_OR_RETURN(bool more, Refill(/*left_side=*/false));
      (void)more;
    }
    const bool left_avail = left_batch_pos_ < left_batch_.ActiveSize();
    const bool right_avail = right_batch_pos_ < right_batch_.ActiveSize();
    if (!left_avail && !right_avail) break;
    bool use_left;
    if (!left_avail) {
      use_left = false;
    } else if (!right_avail) {
      use_left = true;
    } else {
      ++metrics_.merge_comparisons;
      const size_t li = left_batch_.ActiveIndex(left_batch_pos_);
      const size_t ri = right_batch_.ActiveIndex(right_batch_pos_);
      use_left =
          !OrderByStartAsc()(right_batch_.span(ri), left_batch_.span(li));
    }
    TupleBatch* src = use_left ? &left_batch_ : &right_batch_;
    size_t* pos = use_left ? &left_batch_pos_ : &right_batch_pos_;
    const size_t idx = src->ActiveIndex((*pos)++);
    out->PushOwnedCopy(src->row(idx), src->span(idx));
    ++metrics_.tuples_emitted;
  }
  return !out->empty();
}

// ---------------------------------------------------------------------------
// SequencedIntersectStream

SequencedIntersectStream::SequencedIntersectStream(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    LifespanRef lifespan, bool verify_input_order)
    : left_(std::move(left)),
      right_(std::move(right)),
      lifespan_(lifespan) {
  if (verify_input_order) {
    left_validator_ = std::make_unique<OrderValidator>(
        lifespan_, kByValidFromAsc, "intersect left input");
    right_validator_ = std::make_unique<OrderValidator>(
        lifespan_, kByValidFromAsc, "intersect right input");
  }
}

Result<std::unique_ptr<SequencedIntersectStream>>
SequencedIntersectStream::Create(std::unique_ptr<TupleStream> left,
                                 std::unique_ptr<TupleStream> right,
                                 bool verify_input_order) {
  TEMPUS_RETURN_IF_ERROR(
      CheckEqualSchemas(left->schema(), right->schema(), "intersect"));
  TEMPUS_ASSIGN_OR_RETURN(LifespanRef lifespan,
                          LifespanRef::ForSchema(left->schema()));
  return std::unique_ptr<SequencedIntersectStream>(
      new SequencedIntersectStream(std::move(left), std::move(right),
                                   lifespan, verify_input_order));
}

Status SequencedIntersectStream::OpenImpl() {
  TEMPUS_RETURN_IF_ERROR(left_->Open());
  TEMPUS_RETURN_IF_ERROR(right_->Open());
  ++metrics_.passes_left;
  ++metrics_.passes_right;
  left_state_.clear();
  right_state_.clear();
  metrics_.ResetWorkspace();
  left_has_peek_ = right_has_peek_ = false;
  left_done_ = right_done_ = false;
  probing_ = false;
  if (left_validator_) left_validator_->Reset();
  if (right_validator_) right_validator_->Reset();
  return Status::Ok();
}

Result<bool> SequencedIntersectStream::FillPeek(bool left_side) {
  TupleStream* stream = left_side ? left_.get() : right_.get();
  Tuple* peek = left_side ? &left_peek_ : &right_peek_;
  TEMPUS_ASSIGN_OR_RETURN(bool has, stream->Next(peek));
  if (!has) {
    (left_side ? left_done_ : right_done_) = true;
    return false;
  }
  OrderValidator* validator =
      left_side ? left_validator_.get() : right_validator_.get();
  if (validator != nullptr) {
    TEMPUS_RETURN_IF_ERROR(validator->Check(*peek));
  }
  if (left_side) {
    left_peek_span_ = lifespan_.Of(*peek);
    left_has_peek_ = true;
    ++metrics_.tuples_read_left;
  } else {
    right_peek_span_ = lifespan_.Of(*peek);
    right_has_peek_ = true;
    ++metrics_.tuples_read_right;
  }
  return true;
}

bool SequencedIntersectStream::ValuesEqual(const Tuple& a, const Tuple& b) {
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

void SequencedIntersectStream::CollectGarbage() {
  ++metrics_.gc_checks;
  auto sweep = [this](std::vector<StateEntry>* state, TimePoint bound) {
    size_t kept = 0;
    for (size_t i = 0; i < state->size(); ++i) {
      if ((*state)[i].span.end > bound) {
        if (kept != i) (*state)[kept] = std::move((*state)[i]);
        ++kept;
      }
    }
    metrics_.SubWorkspace(state->size() - kept);
    state->resize(kept);
  };
  if (right_done_ && !right_has_peek_) {
    metrics_.SubWorkspace(left_state_.size());
    left_state_.clear();
  } else if (right_has_peek_) {
    sweep(&left_state_, right_peek_span_.start);
  }
  if (left_done_ && !left_has_peek_) {
    metrics_.SubWorkspace(right_state_.size());
    right_state_.clear();
  } else if (left_has_peek_) {
    sweep(&right_state_, left_peek_span_.start);
  }
}

Result<bool> SequencedIntersectStream::Advance() {
  if (!left_has_peek_ && !left_done_) {
    TEMPUS_ASSIGN_OR_RETURN(bool filled, FillPeek(/*left_side=*/true));
    (void)filled;
  }
  if (!right_has_peek_ && !right_done_) {
    TEMPUS_ASSIGN_OR_RETURN(bool filled, FillPeek(/*left_side=*/false));
    (void)filled;
  }
  CollectGarbage();
  if (!left_has_peek_ && !right_has_peek_) return false;
  if (!left_has_peek_ && left_state_.empty()) return false;
  if (!right_has_peek_ && right_state_.empty()) return false;

  bool use_left;
  if (!left_has_peek_) {
    use_left = false;
  } else if (!right_has_peek_) {
    use_left = true;
  } else {
    use_left = left_peek_span_.start <= right_peek_span_.start;
  }
  if (use_left) {
    probe_ = std::move(left_peek_);
    probe_span_ = left_peek_span_;
    left_has_peek_ = false;
  } else {
    probe_ = std::move(right_peek_);
    probe_span_ = right_peek_span_;
    right_has_peek_ = false;
  }
  probe_is_left_ = use_left;
  probe_pos_ = 0;
  probing_ = true;
  return true;
}

Result<bool> SequencedIntersectStream::NextImpl(Tuple* out) {
  while (true) {
    if (probing_) {
      const std::vector<StateEntry>& targets =
          probe_is_left_ ? right_state_ : left_state_;
      while (probe_pos_ < targets.size()) {
        const StateEntry& other = targets[probe_pos_++];
        ++metrics_.comparisons;
        const Interval inter(std::max(probe_span_.start, other.span.start),
                             std::min(probe_span_.end, other.span.end));
        if (!inter.IsValid()) continue;
        if (!ValuesEqual(probe_, other.tuple)) continue;
        // Both sides carry equal values; emit the left side's tuple with
        // the intersection stamped into the lifespan.
        *out = probe_is_left_ ? probe_ : other.tuple;
        out->Set(lifespan_.valid_from_index, Value::Time(inter.start));
        out->Set(lifespan_.valid_to_index, Value::Time(inter.end));
        ++metrics_.tuples_emitted;
        return true;
      }
      const bool opposite_finished = probe_is_left_
                                         ? (right_done_ && !right_has_peek_)
                                         : (left_done_ && !left_has_peek_);
      if (!opposite_finished) {
        (probe_is_left_ ? left_state_ : right_state_)
            .push_back({std::move(probe_), probe_span_});
        metrics_.AddWorkspace();
      }
      probing_ = false;
    }
    TEMPUS_ASSIGN_OR_RETURN(bool more, Advance());
    if (!more) return false;
  }
}

// ---------------------------------------------------------------------------

Result<std::unique_ptr<TemporalSubtractStream>> MakeSequencedExcept(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    bool verify_input_order) {
  SubtractOptions options;
  options.mode = SubtractMode::kValueEqual;
  options.verify_input_order = verify_input_order;
  return TemporalSubtractStream::Create(std::move(left), std::move(right),
                                        options);
}

}  // namespace tempus

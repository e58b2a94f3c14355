#ifndef TEMPUS_SEMANTIC_SET_OPS_H_
#define TEMPUS_SEMANTIC_SET_OPS_H_

#include <memory>
#include <vector>

#include "join/join_common.h"
#include "join/subtract.h"
#include "stream/batch_operator.h"
#include "stream/stream.h"

namespace tempus {

/// Sequenced bag union (UNION ALL): an order-preserving merge of two
/// equal-schema ValidFrom^-ordered inputs, emitting every tuple of both in
/// ValidFrom^ order. Each time point's snapshot is the bag union of the
/// input snapshots. Workspace bound 0 — the two peeks are input buffers,
/// exactly the paper's <Buffer-x, Buffer-y> accounting. The merge walks
/// the two input batches' span columns (docs/BATCH.md).
class SequencedUnionStream final : public BatchOperator {
 public:
  /// Schemas must be equal; both inputs must be ordered ValidFrom^.
  static Result<std::unique_ptr<SequencedUnionStream>> Create(
      std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
      bool verify_input_order = true);

  const Schema& schema() const override { return left_->schema(); }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  SequencedUnionStream(std::unique_ptr<TupleStream> left,
                       std::unique_ptr<TupleStream> right,
                       LifespanRef lifespan, bool verify_input_order);

  /// Pulls the next batch of one input into its cursor; false at its end.
  Result<bool> Refill(bool left_side);

  std::unique_ptr<TupleStream> left_;
  std::unique_ptr<TupleStream> right_;
  LifespanRef lifespan_;
  std::unique_ptr<OrderValidator> left_validator_;
  std::unique_ptr<OrderValidator> right_validator_;

  TupleBatch left_batch_;
  TupleBatch right_batch_;
  size_t left_batch_pos_ = 0;
  size_t right_batch_pos_ = 0;
  bool left_batch_done_ = false;
  bool right_batch_done_ = false;
};

/// Sequenced intersection: for every pair (x, y) equal on all non-lifespan
/// attributes whose lifespans intersect, emits x's values with the lifespan
/// rewritten to the intersection. Under set semantics (distinct inputs)
/// this is exactly the sequenced INTERSECT — each time point's snapshot is
/// the set intersection; under bags multiplicities multiply, as in a join.
/// Same sweep state as the Overlap-join: workspace bound mc_x + mc_y + 2.
class SequencedIntersectStream : public TupleStream {
 public:
  /// Schemas must be equal; both inputs must be ordered ValidFrom^.
  static Result<std::unique_ptr<SequencedIntersectStream>> Create(
      std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
      bool verify_input_order = true);

  const Schema& schema() const override { return left_->schema(); }
  Status OpenImpl() override;
  Result<bool> NextImpl(Tuple* out) override;
  std::vector<const TupleStream*> children() const override {
    return {left_.get(), right_.get()};
  }

 private:
  struct StateEntry {
    Tuple tuple;
    Interval span;
  };

  SequencedIntersectStream(std::unique_ptr<TupleStream> left,
                           std::unique_ptr<TupleStream> right,
                           LifespanRef lifespan, bool verify_input_order);

  Result<bool> FillPeek(bool left_side);
  void CollectGarbage();
  Result<bool> Advance();
  bool ValuesEqual(const Tuple& a, const Tuple& b);

  std::unique_ptr<TupleStream> left_;
  std::unique_ptr<TupleStream> right_;
  LifespanRef lifespan_;
  std::unique_ptr<OrderValidator> left_validator_;
  std::unique_ptr<OrderValidator> right_validator_;

  std::vector<StateEntry> left_state_;
  std::vector<StateEntry> right_state_;

  Tuple left_peek_;
  Interval left_peek_span_;
  bool left_has_peek_ = false;
  bool left_done_ = false;
  Tuple right_peek_;
  Interval right_peek_span_;
  bool right_has_peek_ = false;
  bool right_done_ = false;

  Tuple probe_;
  Interval probe_span_;
  bool probe_is_left_ = false;
  size_t probe_pos_ = 0;
  bool probing_ = false;
};

/// Sequenced difference (EXCEPT): each left tuple survives on the maximal
/// sub-intervals of its lifespan not covered by any value-equal right tuple
/// — TemporalSubtractStream in kValueEqual mode. Workspace bound
/// 2*(mc_x + mc_y + 2).
Result<std::unique_ptr<TemporalSubtractStream>> MakeSequencedExcept(
    std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
    bool verify_input_order = true);

}  // namespace tempus

#endif  // TEMPUS_SEMANTIC_SET_OPS_H_

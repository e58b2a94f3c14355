#ifndef TEMPUS_SEMANTIC_COALESCE_H_
#define TEMPUS_SEMANTIC_COALESCE_H_

#include <memory>
#include <optional>

#include "relation/sort_spec.h"
#include "stream/batch.h"
#include "stream/batch_operator.h"
#include "stream/stream.h"

namespace tempus {

/// The input order coalescing requires: every non-lifespan attribute
/// ascending (in schema position order), then ValidFrom^, then ValidTo^ —
/// value groups are contiguous and each group's intervals arrive by start.
Result<SortSpec> CoalesceSortSpec(const Schema& schema);

/// Interval coalescing: merges value-equivalent tuples whose lifespans
/// overlap or are adjacent (meet) into one tuple per maximal interval.
/// Duplicates collapse, so the output is the canonical set-coalesced form:
/// every time point's snapshot *set* is unchanged, coalescing is idempotent,
/// and the output preserves the input's CoalesceSortSpec order.
///
/// Single accumulator state (workspace bound 1): with the input in
/// CoalesceSortSpec order, a tuple either extends the accumulator (same
/// values, start <= accumulated end — the "coalesce.merge" fault point) or
/// closes it, so one state tuple suffices — the coalescing analogue of the
/// Table 3 single-state self-semijoin orders.
class CoalesceStream final : public BatchOperator {
 public:
  /// The child must produce tuples in CoalesceSortSpec order (verified
  /// incrementally when `verify_input_order`; mis-sorted input fails fast).
  /// The child is consumed in batches of `batch_size` rows (0 means
  /// DefaultBatchSize()) and maximal intervals are emitted into recycled
  /// owned slots, preserving the single-accumulator workspace bound.
  static Result<std::unique_ptr<CoalesceStream>> Create(
      std::unique_ptr<TupleStream> child, bool verify_input_order = true,
      size_t batch_size = 0);

  const Schema& schema() const override { return child_->schema(); }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  CoalesceStream(std::unique_ptr<TupleStream> child, LifespanRef lifespan,
                 SortSpec spec, bool verify_input_order, size_t batch_size);

  bool SameGroup(const Tuple& a, const Tuple& b);
  Tuple Flush();
  /// Incremental order validation of the next input row.
  Status CheckOrder(const Tuple& next);

  std::unique_ptr<TupleStream> child_;
  LifespanRef lifespan_;
  SortSpec spec_;
  bool verify_input_order_;

  Tuple acc_;
  Interval acc_span_;
  bool have_acc_ = false;
  bool input_done_ = false;
  std::optional<Tuple> previous_;  // Order-validation witness.

  TupleBatch input_;        // Scratch for child rows.
  size_t input_cursor_ = 0;
};

}  // namespace tempus

#endif  // TEMPUS_SEMANTIC_COALESCE_H_

#ifndef TEMPUS_JOIN_BEFORE_JOIN_H_
#define TEMPUS_JOIN_BEFORE_JOIN_H_

#include <memory>
#include <vector>

#include "common/interval.h"
#include "join/join_common.h"
#include "stream/batch.h"
#include "stream/batch_operator.h"
#include "stream/stream.h"

namespace tempus {

struct BeforeJoinOptions {
  /// If true, the right input is promised to be sorted ValidFrom^ and is
  /// only buffered; otherwise it is buffered AND sorted on Open().
  bool right_presorted = false;
  bool verify_input_order = true;
  JoinNaming naming;
  /// Rows per child batch (docs/BATCH.md); 0 means DefaultBatchSize().
  size_t batch_size = 0;
};

/// Before-join(X, Y): emits x ++ y whenever X.TE < Y.TS (Figure 2 (7)).
///
/// The paper observes that "there is no sort ordering that would
/// significantly limit the amount of state information" for a pure stream
/// implementation, and that nested-loop is the right strategy — but also
/// that "with proper sort orders, nested-loop join can avoid scanning the
/// inner relation in its entirety". This operator is that refinement: the
/// inner (right) relation is buffered sorted by ValidFrom; each outer
/// tuple binary-searches its first match and emits the tail run straight
/// into the output batch's recycled slots. The buffered inner relation is
/// reported as workspace.
class BeforeJoinStream final : public BatchOperator {
 public:
  static Result<std::unique_ptr<BeforeJoinStream>> Create(
      std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
      BeforeJoinOptions options = {});

  const Schema& schema() const override { return schema_; }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {left_.get(), right_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  BeforeJoinStream(std::unique_ptr<TupleStream> left,
                   std::unique_ptr<TupleStream> right,
                   BeforeJoinOptions options, Schema schema,
                   LifespanRef left_ref, LifespanRef right_ref);

  /// Binary-searches the run start of the outer row in current_left_.
  void StartRun();

  std::unique_ptr<TupleStream> left_;
  std::unique_ptr<TupleStream> right_;
  BeforeJoinOptions options_;
  Schema schema_;
  LifespanRef left_ref_;
  LifespanRef right_ref_;

  std::vector<Tuple> inner_;           // Sorted by ValidFrom ascending.
  std::vector<TimePoint> inner_from_;  // Parallel ValidFrom keys.
  Tuple current_left_;
  bool have_left_ = false;
  size_t inner_pos_ = 0;

  TupleBatch left_batch_;   // Scratch for outer rows.
  size_t left_cursor_ = 0;  // Next unconsumed active index in left_batch_.
};

/// Before-semijoin(X, Y): emits each x with X.TE < Y.TS for some y.
/// As the paper notes, this "scans both operand relations only once and is
/// independent of any sort orderings": one pass over Y computes
/// max(Y.ValidFrom); one pass over X emits every x ending before it.
class BeforeSemijoin final : public BatchOperator {
 public:
  /// X rows are forwarded zero-copy when stable; both inputs are scanned
  /// in batches of `batch_size` rows (0 means DefaultBatchSize()).
  static Result<std::unique_ptr<BeforeSemijoin>> Create(
      std::unique_ptr<TupleStream> x, std::unique_ptr<TupleStream> y,
      size_t batch_size = 0);

  const Schema& schema() const override { return x_->schema(); }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {x_.get(), y_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  BeforeSemijoin(std::unique_ptr<TupleStream> x,
                 std::unique_ptr<TupleStream> y, LifespanRef x_ref,
                 LifespanRef y_ref, size_t batch_size);

  std::unique_ptr<TupleStream> x_;
  std::unique_ptr<TupleStream> y_;
  LifespanRef x_ref_;
  LifespanRef y_ref_;
  TimePoint max_y_from_ = kMinTime;
  bool y_empty_ = true;

  TupleBatch x_batch_;   // Scratch for X rows.
  size_t x_cursor_ = 0;  // Next unconsumed active index in x_batch_.
};

}  // namespace tempus

#endif  // TEMPUS_JOIN_BEFORE_JOIN_H_

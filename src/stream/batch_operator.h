#ifndef TEMPUS_STREAM_BATCH_OPERATOR_H_
#define TEMPUS_STREAM_BATCH_OPERATOR_H_

#include "stream/batch.h"
#include "stream/stream.h"

namespace tempus {

/// Base of every operator whose algorithm is written once, as a batch loop
/// (docs/BATCH.md): NextBatchImpl routes to ProduceBatch(), and NextImpl is
/// the shared row adapter — it pops rows from an internally produced batch,
/// so tuple-at-a-time consumers see the same rows in the same order.
class BatchOperator : public TupleStream {
 protected:
  /// `batch_size` 0 means DefaultBatchSize().
  explicit BatchOperator(size_t batch_size)
      : batch_size_(batch_size == 0 ? DefaultBatchSize() : batch_size) {}

  /// Appends rows to `out` (already reserved and cleared) until `out`
  /// holds `max_rows` rows or the stream is exhausted. Returns false only
  /// at end-of-stream with `out` empty. Operator state persists across
  /// calls, so production may suspend mid-probe at the batch boundary.
  virtual Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) = 0;

  Result<bool> NextBatchImpl(TupleBatch* out, size_t max_rows) override {
    return ProduceBatch(out, max_rows);
  }

  Result<bool> NextImpl(Tuple* out) override;

  /// Call from OpenImpl(): drops adapter rows left from a previous pass.
  void ResetAdapter() {
    adapter_batch_.Clear();
    adapter_cursor_ = 0;
  }

  /// Configured batch size (>= 1), also used when pulling children.
  const size_t batch_size_;

 private:
  TupleBatch adapter_batch_;
  size_t adapter_cursor_ = 0;
};

}  // namespace tempus

#endif  // TEMPUS_STREAM_BATCH_OPERATOR_H_

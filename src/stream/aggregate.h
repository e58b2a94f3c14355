#ifndef TEMPUS_STREAM_AGGREGATE_H_
#define TEMPUS_STREAM_AGGREGATE_H_

#include <memory>
#include <string>
#include <vector>

#include "stream/batch.h"
#include "stream/batch_operator.h"
#include "stream/stream.h"

namespace tempus {

/// Aggregate functions supported by GroupAggregateStream.
enum class AggregateFunction { kCount, kSum, kMin, kMax, kAvg };

std::string_view AggregateFunctionName(AggregateFunction fn);

/// One aggregate column to compute.
struct AggregateSpec {
  AggregateFunction function = AggregateFunction::kCount;
  /// Input attribute (ignored for kCount; must be numeric otherwise).
  size_t attr_index = 0;
  std::string output_name;
};

/// The paper's Figure 4 stream processor, generalized: "a simple stream
/// processor which lists all the departments and computes the sum of all
/// employees' salaries in each department. If the stream of tuples are
/// grouped by the department name, the local workspace simply contains
/// the partial sum and a buffer for the tuple just read."
///
/// Input must be grouped (e.g. sorted) on the grouping attributes; the
/// state is then one group key plus the accumulators — summary
/// information rather than tuple copies, the second kind of stream state
/// Section 4.1 describes. Output: one row per group, grouping attributes
/// followed by the aggregate columns, in group arrival order.
class GroupAggregateStream final : public BatchOperator {
 public:
  /// The child is consumed in batches of `batch_size` rows (0 means
  /// DefaultBatchSize()); one output row per group boundary is pushed into
  /// recycled owned slots. The group-state workspace bound is 1.
  static Result<std::unique_ptr<GroupAggregateStream>> Create(
      std::unique_ptr<TupleStream> child, std::vector<size_t> group_attrs,
      std::vector<AggregateSpec> aggregates, size_t batch_size = 0);

  const Schema& schema() const override { return schema_; }
  Status OpenImpl() override;
  std::vector<const TupleStream*> children() const override {
    return {child_.get()};
  }

 protected:
  Result<bool> ProduceBatch(TupleBatch* out, size_t max_rows) override;

 private:
  struct Accumulator {
    int64_t count = 0;
    double sum = 0;
    double min = 0;
    double max = 0;
    bool any = false;

    void Add(double v) {
      ++count;
      sum += v;
      min = any ? std::min(min, v) : v;
      max = any ? std::max(max, v) : v;
      any = true;
    }
  };

  GroupAggregateStream(std::unique_ptr<TupleStream> child,
                       std::vector<size_t> group_attrs,
                       std::vector<AggregateSpec> aggregates, Schema schema,
                       size_t batch_size);

  bool SameGroup(const Tuple& t) const;
  Status Accumulate(const Tuple& t);
  Tuple EmitGroup();
  void StartGroup(const Tuple& t);

  std::unique_ptr<TupleStream> child_;
  std::vector<size_t> group_attrs_;
  std::vector<AggregateSpec> aggregates_;
  Schema schema_;

  std::vector<Value> current_key_;
  std::vector<Accumulator> accumulators_;
  bool has_group_ = false;
  bool done_ = false;

  TupleBatch input_;        // Scratch for child rows.
  size_t input_cursor_ = 0;
};

}  // namespace tempus

#endif  // TEMPUS_STREAM_AGGREGATE_H_

#include "stream/aggregate.h"

#include <algorithm>
#include <cmath>

namespace tempus {

std::string_view AggregateFunctionName(AggregateFunction fn) {
  switch (fn) {
    case AggregateFunction::kCount:
      return "count";
    case AggregateFunction::kSum:
      return "sum";
    case AggregateFunction::kMin:
      return "min";
    case AggregateFunction::kMax:
      return "max";
    case AggregateFunction::kAvg:
      return "avg";
  }
  return "?";
}

GroupAggregateStream::GroupAggregateStream(
    std::unique_ptr<TupleStream> child, std::vector<size_t> group_attrs,
    std::vector<AggregateSpec> aggregates, Schema schema, size_t batch_size)
    : BatchOperator(batch_size),
      child_(std::move(child)),
      group_attrs_(std::move(group_attrs)),
      aggregates_(std::move(aggregates)),
      schema_(std::move(schema)) {}

Result<std::unique_ptr<GroupAggregateStream>> GroupAggregateStream::Create(
    std::unique_ptr<TupleStream> child, std::vector<size_t> group_attrs,
    std::vector<AggregateSpec> aggregates, size_t batch_size) {
  const Schema& in = child->schema();
  std::vector<AttributeDef> attrs;
  for (size_t ix : group_attrs) {
    if (ix >= in.attribute_count()) {
      return Status::OutOfRange("grouping attribute index out of range");
    }
    attrs.push_back(in.attribute(ix));
  }
  for (const AggregateSpec& spec : aggregates) {
    if (spec.output_name.empty()) {
      return Status::InvalidArgument("aggregate output name required");
    }
    ValueType type = ValueType::kDouble;
    if (spec.function == AggregateFunction::kCount) {
      type = ValueType::kInt64;
    } else {
      if (spec.attr_index >= in.attribute_count()) {
        return Status::OutOfRange("aggregate attribute index out of range");
      }
      const ValueType input_type = in.attribute(spec.attr_index).type;
      if (input_type == ValueType::kString) {
        return Status::InvalidArgument(
            "numeric aggregate over STRING attribute " +
            in.attribute(spec.attr_index).name);
      }
      if (spec.function != AggregateFunction::kAvg &&
          input_type != ValueType::kDouble) {
        type = ValueType::kInt64;
      }
    }
    attrs.push_back({spec.output_name, type});
  }
  TEMPUS_ASSIGN_OR_RETURN(Schema schema, Schema::Create(std::move(attrs)));
  return std::unique_ptr<GroupAggregateStream>(new GroupAggregateStream(
      std::move(child), std::move(group_attrs), std::move(aggregates),
      std::move(schema), batch_size));
}

Status GroupAggregateStream::OpenImpl() {
  ++metrics_.passes_left;
  has_group_ = false;
  done_ = false;
  metrics_.ResetWorkspace();
  input_.Clear();
  input_cursor_ = 0;
  ResetAdapter();
  return child_->Open();
}

void GroupAggregateStream::StartGroup(const Tuple& t) {
  current_key_.clear();
  for (size_t ix : group_attrs_) current_key_.push_back(t[ix]);
  accumulators_.assign(aggregates_.size(), {});
}

bool GroupAggregateStream::SameGroup(const Tuple& t) const {
  for (size_t i = 0; i < group_attrs_.size(); ++i) {
    if (!current_key_[i].Equals(t[group_attrs_[i]])) return false;
  }
  return true;
}

Status GroupAggregateStream::Accumulate(const Tuple& t) {
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    const AggregateSpec& spec = aggregates_[i];
    if (spec.function == AggregateFunction::kCount) {
      accumulators_[i].Add(0);
      continue;
    }
    const Value& v = t[spec.attr_index];
    if (v.is_null()) continue;  // SQL-style: nulls are skipped.
    accumulators_[i].Add(v.AsDouble());
  }
  return Status::Ok();
}

Tuple GroupAggregateStream::EmitGroup() {
  std::vector<Value> values = current_key_;
  for (size_t i = 0; i < aggregates_.size(); ++i) {
    const AggregateSpec& spec = aggregates_[i];
    const Accumulator& acc = accumulators_[i];
    const ValueType out_type =
        schema_.attribute(group_attrs_.size() + i).type;
    auto numeric = [out_type](double v) {
      return out_type == ValueType::kInt64
                 ? Value::Int(static_cast<int64_t>(std::llround(v)))
                 : Value::Real(v);
    };
    switch (spec.function) {
      case AggregateFunction::kCount:
        values.push_back(Value::Int(acc.count));
        break;
      case AggregateFunction::kSum:
        values.push_back(acc.any ? numeric(acc.sum) : numeric(0));
        break;
      case AggregateFunction::kMin:
        values.push_back(acc.any ? numeric(acc.min) : Value::Null());
        break;
      case AggregateFunction::kMax:
        values.push_back(acc.any ? numeric(acc.max) : Value::Null());
        break;
      case AggregateFunction::kAvg:
        values.push_back(acc.any
                             ? Value::Real(acc.sum /
                                           static_cast<double>(acc.count))
                             : Value::Null());
        break;
    }
  }
  return Tuple(std::move(values));
}

Result<bool> GroupAggregateStream::ProduceBatch(TupleBatch* out,
                                                size_t max_rows) {
  const LifespanRef* lifespan = BatchLifespan();
  auto push_group = [&] {
    Tuple row = EmitGroup();
    const Interval span =
        lifespan != nullptr ? lifespan->Of(row) : Interval();
    out->PushOwned(std::move(row), span);
    ++metrics_.tuples_emitted;
  };
  while (out->size() < max_rows) {
    if (done_) {
      if (has_group_) {
        push_group();
        has_group_ = false;
        metrics_.SubWorkspace();
      }
      break;
    }
    if (input_cursor_ >= input_.ActiveSize()) {
      TEMPUS_ASSIGN_OR_RETURN(bool more,
                              child_->NextBatch(&input_, batch_size_));
      input_cursor_ = 0;
      if (!more) done_ = true;
      continue;
    }
    const Tuple& t = input_.row(input_.ActiveIndex(input_cursor_++));
    ++metrics_.tuples_read_left;
    if (!has_group_) {
      StartGroup(t);
      has_group_ = true;
      metrics_.AddWorkspace();  // The group state (key + accumulators).
      TEMPUS_RETURN_IF_ERROR(Accumulate(t));
      continue;
    }
    ++metrics_.comparisons;
    if (SameGroup(t)) {
      TEMPUS_RETURN_IF_ERROR(Accumulate(t));
      continue;
    }
    // Group boundary: emit the finished group, start the new one.
    push_group();
    StartGroup(t);
    TEMPUS_RETURN_IF_ERROR(Accumulate(t));
  }
  return !out->empty();
}

}  // namespace tempus

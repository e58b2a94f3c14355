#include "relation/temporal_relation.h"

#include <algorithm>
#include <unordered_map>

#include "common/string_util.h"
#include "relation/endpoint_index.h"

namespace tempus {

Status TemporalRelation::Append(Tuple tuple) {
  if (tuple.size() != schema_.attribute_count()) {
    return Status::InvalidArgument(
        StrFormat("tuple arity %zu does not match schema arity %zu",
                  tuple.size(), schema_.attribute_count()));
  }
  for (size_t i = 0; i < tuple.size(); ++i) {
    if (!tuple[i].MatchesType(schema_.attribute(i).type)) {
      return Status::InvalidArgument(
          "type mismatch for attribute " + schema_.attribute(i).name +
          ": got " + tuple[i].ToString());
    }
  }
  if (schema_.has_lifespan()) {
    const Value& from = tuple[schema_.valid_from_index()];
    const Value& to = tuple[schema_.valid_to_index()];
    if (from.is_null() || to.is_null()) {
      return Status::InvalidArgument("lifespan attributes must be non-null");
    }
    const Interval lifespan(from.time_value(), to.time_value());
    if (!lifespan.IsValid()) {
      return Status::InvalidArgument(
          "intra-tuple integrity violation (ValidFrom < ValidTo required): " +
          lifespan.ToString());
    }
  }
  tuples_.push_back(std::move(tuple));
  known_order_.reset();
  return Status::Ok();
}

Status TemporalRelation::AppendRow(Value surrogate, Value value,
                                   TimePoint valid_from, TimePoint valid_to) {
  if (schema_.attribute_count() != 4 || schema_.valid_from_index() != 2 ||
      schema_.valid_to_index() != 3) {
    return Status::FailedPrecondition(
        "AppendRow requires the canonical <S, V, ValidFrom, ValidTo> schema");
  }
  return Append(MakeTemporalTuple(std::move(surrogate), std::move(value),
                                  valid_from, valid_to));
}

void TemporalRelation::SortBy(const SortSpec& spec) {
  SortTuples(&tuples_, spec);
  known_order_ = spec;
}

TemporalRelation TemporalRelation::SortedBy(const SortSpec& spec) const {
  TemporalRelation copy = *this;
  copy.SortBy(spec);
  return copy;
}

Status TemporalRelation::DeclareOrder(const SortSpec& spec) {
  if (!IsSorted(tuples_, spec)) {
    return Status::FailedPrecondition(
        "relation " + name_ + " is not sorted by " + spec.ToString(schema_));
  }
  known_order_ = spec;
  return Status::Ok();
}

Interval TemporalRelation::LifespanOf(size_t i) const {
  const Tuple& t = tuples_[i];
  return Interval(t[schema_.valid_from_index()].time_value(),
                  t[schema_.valid_to_index()].time_value());
}

Result<RelationStats> TemporalRelation::ComputeStats() const {
  TEMPUS_ASSIGN_OR_RETURN(IndexedStats indexed, IndexEndpoints(*this));
  return indexed.stats;
}

bool TemporalRelation::EqualsIgnoringOrder(
    const TemporalRelation& other) const {
  if (tuples_.size() != other.tuples_.size()) return false;
  if (!schema_.Equals(other.schema_)) return false;
  // Multiset comparison via hash buckets with exact verification.
  std::unordered_map<uint64_t, std::vector<const Tuple*>> buckets;
  for (const Tuple& t : tuples_) {
    buckets[t.Hash()].push_back(&t);
  }
  for (const Tuple& t : other.tuples_) {
    auto it = buckets.find(t.Hash());
    if (it == buckets.end()) return false;
    std::vector<const Tuple*>& bucket = it->second;
    bool matched = false;
    for (size_t i = 0; i < bucket.size(); ++i) {
      if (bucket[i]->Equals(t)) {
        bucket[i] = bucket.back();
        bucket.pop_back();
        matched = true;
        break;
      }
    }
    if (!matched) return false;
    if (bucket.empty()) buckets.erase(it);
  }
  return buckets.empty();
}

std::string TemporalRelation::ToString(size_t limit) const {
  std::string out = name_ + " " + schema_.ToString() +
                    StrFormat(" [%zu tuples]\n", tuples_.size());
  const size_t n = std::min(limit, tuples_.size());
  for (size_t i = 0; i < n; ++i) {
    out += "  " + tuples_[i].ToString() + "\n";
  }
  if (n < tuples_.size()) {
    out += StrFormat("  ... (%zu more)\n", tuples_.size() - n);
  }
  return out;
}

}  // namespace tempus

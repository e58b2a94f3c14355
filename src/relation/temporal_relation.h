#ifndef TEMPUS_RELATION_TEMPORAL_RELATION_H_
#define TEMPUS_RELATION_TEMPORAL_RELATION_H_

#include <optional>
#include <string>
#include <vector>

#include "common/interval.h"
#include "common/result.h"
#include "common/status.h"
#include "relation/schema.h"
#include "relation/sort_spec.h"
#include "relation/tuple.h"

namespace tempus {

/// Instance statistics used by the stream operators' read policies and by
/// the benchmark harness to instantiate the paper's symbolic workspace
/// bounds (Section 4.1: "the size of the local workspace ... depends on the
/// statistics of specific instance of data streams").
struct RelationStats {
  size_t tuple_count = 0;
  TimePoint min_valid_from = kMaxTime;
  TimePoint max_valid_to = kMinTime;
  double mean_duration = 0.0;
  TimePoint max_duration = 0;
  /// Mean gap between consecutive ValidFrom values in sorted order — the
  /// paper's 1/lambda (Section 4.2.1 assumption (2)).
  double mean_interarrival = 0.0;
  /// Maximum number of lifespans containing any single time point; this is
  /// exactly the paper's "X tuples whose lifespan span t" state bound.
  size_t max_concurrency = 0;

  bool operator==(const RelationStats&) const = default;
};

/// An in-memory temporal relation: a schema plus a bag of tuples, with
/// optional knowledge of its current sort order (the planner's
/// "interesting order" property, carried through order-preserving
/// operators).
class TemporalRelation {
 public:
  TemporalRelation() = default;
  TemporalRelation(std::string name, Schema schema)
      : name_(std::move(name)), schema_(std::move(schema)) {}

  const std::string& name() const { return name_; }
  const Schema& schema() const { return schema_; }

  size_t size() const { return tuples_.size(); }
  bool empty() const { return tuples_.empty(); }
  const std::vector<Tuple>& tuples() const { return tuples_; }
  const Tuple& tuple(size_t i) const { return tuples_[i]; }

  /// Appends a tuple after validating arity, attribute types, and — when
  /// the schema is temporal — the intra-tuple constraint TS < TE.
  /// Invalidates the known sort order.
  Status Append(Tuple tuple);

  /// Appends the canonical 4-tuple <S, V, TS, TE>; schema must be
  /// canonical-shaped (4 attributes, lifespan at positions 2 and 3).
  Status AppendRow(Value surrogate, Value value, TimePoint valid_from,
                   TimePoint valid_to);

  /// Sorts in place and records the order.
  void SortBy(const SortSpec& spec);

  /// Returns a sorted copy.
  TemporalRelation SortedBy(const SortSpec& spec) const;

  /// The order the tuples are currently known to satisfy, if any.
  const std::optional<SortSpec>& known_order() const { return known_order_; }

  /// Declares (and verifies) that the tuples satisfy `spec`.
  Status DeclareOrder(const SortSpec& spec);

  /// Lifespan of tuple i; schema must be temporal.
  Interval LifespanOf(size_t i) const;

  /// Computes instance statistics: the catalog's registration pass
  /// (IndexEndpoints, relation/endpoint_index.h) without keeping the
  /// index. Linear in the row count.
  Result<RelationStats> ComputeStats() const;

  /// Multiset equality with another relation (order-insensitive); used by
  /// the property tests to compare operator outputs against references.
  bool EqualsIgnoringOrder(const TemporalRelation& other) const;

  /// Renders up to `limit` tuples, one per line, with a header.
  std::string ToString(size_t limit = 20) const;

 private:
  std::string name_;
  Schema schema_;
  std::vector<Tuple> tuples_;
  std::optional<SortSpec> known_order_;
};

}  // namespace tempus

#endif  // TEMPUS_RELATION_TEMPORAL_RELATION_H_

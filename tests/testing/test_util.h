#ifndef TEMPUS_TESTS_TESTING_TEST_UTIL_H_
#define TEMPUS_TESTS_TESTING_TEST_UTIL_H_

#include <memory>
#include <string>
#include <vector>

#include "allen/interval_algebra.h"
#include "common/interval.h"
#include "join/join_common.h"
#include "join/nested_loop.h"
#include "relation/temporal_relation.h"
#include "stats/interval_stats.h"
#include "stream/stream.h"

#include "gtest/gtest.h"

namespace tempus {
namespace testing {

/// ASSERT that a Status is OK, printing it otherwise.
#define TEMPUS_ASSERT_OK(expr)                                      \
  do {                                                              \
    const ::tempus::Status tempus_test_status_ = (expr);            \
    ASSERT_TRUE(tempus_test_status_.ok())                           \
        << "status: " << tempus_test_status_.ToString();            \
  } while (false)

#define TEMPUS_EXPECT_OK(expr)                                      \
  do {                                                              \
    const ::tempus::Status tempus_test_status_ = (expr);            \
    EXPECT_TRUE(tempus_test_status_.ok())                           \
        << "status: " << tempus_test_status_.ToString();            \
  } while (false)

/// Builds a canonical <S, V, TS, TE> relation from interval endpoints;
/// S = index, V = 0.
inline TemporalRelation MakeIntervals(
    const std::string& name,
    const std::vector<std::pair<TimePoint, TimePoint>>& spans) {
  TemporalRelation rel(name, Schema::Canonical("S", ValueType::kInt64, "V",
                                               ValueType::kInt64));
  for (size_t i = 0; i < spans.size(); ++i) {
    const Status s =
        rel.AppendRow(Value::Int(static_cast<int64_t>(i)), Value::Int(0),
                      spans[i].first, spans[i].second);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return rel;
}

/// `analyze`'s statistics for `rel`, built from the index and scalars its
/// catalog registration builds.
inline Result<IntervalStats> BuildStats(const TemporalRelation& rel,
                                        size_t buckets = 32) {
  TEMPUS_ASSIGN_OR_RETURN(IndexedStats indexed, IndexEndpoints(rel));
  return BuildIntervalStats(rel, indexed.stats, indexed.index, buckets);
}

/// Lifespans of all tuples, in relation order.
inline std::vector<Interval> Lifespans(const TemporalRelation& rel) {
  std::vector<Interval> out;
  out.reserve(rel.size());
  for (size_t i = 0; i < rel.size(); ++i) out.push_back(rel.LifespanOf(i));
  return out;
}

/// Materializes a stream, asserting success.
inline TemporalRelation MustMaterialize(TupleStream* stream,
                                        const std::string& name) {
  Result<TemporalRelation> result = Materialize(stream, name);
  EXPECT_TRUE(result.ok()) << result.status().ToString();
  return result.ok() ? std::move(result).value()
                     : TemporalRelation(name, stream->schema());
}

/// Reference join: nested loop over the two relations with an Allen mask,
/// materialized with x/y prefixes. The trusted oracle for property tests.
inline TemporalRelation ReferenceMaskJoin(const TemporalRelation& x,
                                          const TemporalRelation& y,
                                          AllenMask mask) {
  Result<PairPredicate> pred =
      MakeIntervalPairPredicate(x.schema(), y.schema(), mask);
  EXPECT_TRUE(pred.ok()) << pred.status().ToString();
  Result<std::unique_ptr<NestedLoopJoin>> join = NestedLoopJoin::Create(
      VectorStream::Scan(x), VectorStream::Scan(y), std::move(pred).value());
  EXPECT_TRUE(join.ok()) << join.status().ToString();
  return MustMaterialize(join.value().get(), "reference");
}

/// Reference semijoin: emits x tuples with at least one mask-related y.
inline TemporalRelation ReferenceMaskSemijoin(const TemporalRelation& x,
                                              const TemporalRelation& y,
                                              AllenMask mask) {
  Result<PairPredicate> pred =
      MakeIntervalPairPredicate(x.schema(), y.schema(), mask);
  EXPECT_TRUE(pred.ok()) << pred.status().ToString();
  NestedLoopSemijoin semi(VectorStream::Scan(x), VectorStream::Scan(y),
                          std::move(pred).value());
  return MustMaterialize(&semi, "reference");
}

/// Reference self-semijoin with an irreflexivity guard (witness must be a
/// DIFFERENT tuple; relevant when duplicates exist, since e.g. `during` is
/// irreflexive but a duplicate tuple is a distinct witness).
inline TemporalRelation ReferenceSelfSemijoin(const TemporalRelation& x,
                                              AllenMask mask) {
  TemporalRelation out("reference", x.schema());
  for (size_t i = 0; i < x.size(); ++i) {
    for (size_t j = 0; j < x.size(); ++j) {
      if (i == j) continue;
      if (mask.HoldsBetween(x.LifespanOf(i), x.LifespanOf(j))) {
        EXPECT_TRUE(out.Append(x.tuple(i)).ok());
        break;
      }
    }
  }
  return out;
}

/// Returns a copy of `rel` sorted into the canonical temporal order.
inline TemporalRelation SortedByOrder(const TemporalRelation& rel,
                                      TemporalSortOrder order) {
  Result<SortSpec> spec = order.ToSortSpec(rel.schema());
  EXPECT_TRUE(spec.ok()) << spec.status().ToString();
  return rel.SortedBy(spec.value());
}

/// EXPECT multiset equality of two relations with a readable dump.
inline void ExpectSameTuples(const TemporalRelation& actual,
                             const TemporalRelation& expected) {
  EXPECT_TRUE(actual.EqualsIgnoringOrder(expected))
      << "actual:\n"
      << actual.ToString(50) << "expected:\n"
      << expected.ToString(50);
}

}  // namespace testing
}  // namespace tempus

#endif  // TEMPUS_TESTS_TESTING_TEST_UTIL_H_

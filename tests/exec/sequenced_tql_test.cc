// Every sequenced TQL statement (docs/TQL.md) through Engine::RunQuery:
// left/right/full outer join, anti join, union, intersect, except,
// coalesce, a self outer join, and one `into` chain. Each result must
// match, row for row and byte for byte, the operator built directly on
// the same ValidFrom^-sorted inputs, so the parser's sequenced grammar
// and the planner's sequenced branch are pinned to the operators they
// wrap.

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>

#include "exec/engine.h"
#include "gtest/gtest.h"
#include "join/outer_join.h"
#include "join/subtract.h"
#include "relation/csv.h"
#include "semantic/coalesce.h"
#include "semantic/set_ops.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::MustMaterialize;

/// A canonical <S, V, ValidFrom, ValidTo> relation in ValidFrom^ order.
/// Starts strictly increase, so every sort of it is tie-free; S and V come
/// from tiny domains, so intersect and except find value-equal pairs.
TemporalRelation MakeRel(const std::string& name, uint64_t seed) {
  TemporalRelation rel(name, Schema::Canonical("S", ValueType::kInt64, "V",
                                               ValueType::kInt64));
  uint64_t state = seed;
  auto next = [&state](uint64_t mod) {
    state = state * 6364136223846793005ULL + 1442695040888963407ULL;
    return static_cast<int64_t>((state >> 33) % mod);
  };
  TimePoint from = 0;
  for (int i = 0; i < 60; ++i) {
    from += 1 + next(3);
    const TimePoint to = from + 1 + next(12);
    const Status s =
        rel.AppendRow(Value::Int(next(3)), Value::Int(next(2)), from, to);
    EXPECT_TRUE(s.ok()) << s.ToString();
  }
  return rel;
}

std::string Csv(const TemporalRelation& rel) {
  std::ostringstream out;
  const Status s = WriteCsv(rel, &out);
  EXPECT_TRUE(s.ok()) << s.ToString();
  return out.str();
}

class SequencedTqlTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TEMPUS_ASSERT_OK(engine_.mutable_catalog()->Register(a_));
    TEMPUS_ASSERT_OK(engine_.mutable_catalog()->Register(b_));
  }

  /// Runs `tql` and returns its result, failing the test on any error.
  TemporalRelation Run(const std::string& tql) {
    Result<QueryRun> run = engine_.RunQuery(tql);
    EXPECT_TRUE(run.ok()) << tql << ": " << run.status().ToString();
    if (!run.ok()) return TemporalRelation("failed", Schema());
    EXPECT_TRUE(run->status.ok()) << tql << ": " << run->status.ToString();
    return std::move(run->result);
  }

  /// Runs `tql` and expects the same rows, in the same order, as `direct`.
  template <typename T>
  void ExpectSameAsOperator(const std::string& tql,
                            Result<std::unique_ptr<T>> direct) {
    SCOPED_TRACE(tql);
    ASSERT_TRUE(direct.ok()) << direct.status().ToString();
    const TemporalRelation expected = MustMaterialize(direct->get(), "op");
    const TemporalRelation actual = Run(tql);
    EXPECT_EQ(actual.schema().ToString(), expected.schema().ToString());
    EXPECT_EQ(Csv(actual), Csv(expected));
  }

  std::unique_ptr<TupleStream> ScanA() const { return VectorStream::Scan(a_); }
  std::unique_ptr<TupleStream> ScanB() const { return VectorStream::Scan(b_); }

  static Result<std::unique_ptr<TemporalOuterJoin>> Outer(
      std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
      OuterJoinMode mode, JoinNaming naming) {
    OuterJoinOptions options;
    options.mode = mode;
    options.naming = std::move(naming);
    return TemporalOuterJoin::Create(std::move(left), std::move(right),
                                     options);
  }

  static Result<std::unique_ptr<TemporalSubtractStream>> Subtract(
      std::unique_ptr<TupleStream> left, std::unique_ptr<TupleStream> right,
      SubtractMode mode) {
    SubtractOptions options;
    options.mode = mode;
    return TemporalSubtractStream::Create(std::move(left), std::move(right),
                                          options);
  }

  const TemporalRelation a_ = MakeRel("A", 11);
  const TemporalRelation b_ = MakeRel("B", 22);
  Engine engine_;
};

TEST_F(SequencedTqlTest, OuterJoinsMatchTheOperator) {
  ExpectSameAsOperator(
      "left join A B on overlaps",
      Outer(ScanA(), ScanB(), OuterJoinMode::kLeft, {"A", "B"}));
  ExpectSameAsOperator(
      "right join A B on overlaps",
      Outer(ScanA(), ScanB(), OuterJoinMode::kRight, {"A", "B"}));
  ExpectSameAsOperator(
      "full join A B on overlap",
      Outer(ScanA(), ScanB(), OuterJoinMode::kFull, {"A", "B"}));
}

TEST_F(SequencedTqlTest, SelfOuterJoinQualifiesTheRightSide) {
  ExpectSameAsOperator(
      "left join A A on overlaps",
      Outer(ScanA(), ScanA(), OuterJoinMode::kLeft, {"A", "A_2"}));
  ExpectSameAsOperator(
      "right join A A on overlaps",
      Outer(ScanA(), ScanA(), OuterJoinMode::kRight, {"A", "A_2"}));
  ExpectSameAsOperator(
      "full join A A on overlaps",
      Outer(ScanA(), ScanA(), OuterJoinMode::kFull, {"A", "A_2"}));
  const TemporalRelation full = Run("full join A A on overlaps");
  EXPECT_NE(full.schema().IndexOf("A.S"), kNoAttribute);
  EXPECT_NE(full.schema().IndexOf("A_2.S"), kNoAttribute);
}

TEST_F(SequencedTqlTest, AntiJoinAndExceptMatchTheOperator) {
  ExpectSameAsOperator("anti join A B",
                       Subtract(ScanA(), ScanB(), SubtractMode::kAll));
  ExpectSameAsOperator("anti join A B on overlaps",
                       Subtract(ScanA(), ScanB(), SubtractMode::kAll));
  ExpectSameAsOperator("A except B",
                       Subtract(ScanA(), ScanB(), SubtractMode::kValueEqual));
}

TEST_F(SequencedTqlTest, UnionAndIntersectMatchTheOperator) {
  ExpectSameAsOperator("A union B",
                       SequencedUnionStream::Create(ScanA(), ScanB()));
  ExpectSameAsOperator("A intersect B",
                       SequencedIntersectStream::Create(ScanA(), ScanB()));
  const TemporalRelation both = Run("A intersect B");
  EXPECT_GT(both.size(), 0u) << "inputs share no value-equal pair";
}

TEST_F(SequencedTqlTest, CoalesceMatchesTheOperator) {
  Result<SortSpec> key = CoalesceSortSpec(a_.schema());
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  const TemporalRelation sorted = a_.SortedBy(*key);
  ExpectSameAsOperator("coalesce A",
                       CoalesceStream::Create(VectorStream::Scan(sorted)));
}

TEST_F(SequencedTqlTest, IntoChainFeedsTheNextStatement) {
  // A union B into U, then coalesce U: the named result registers as an
  // ordinary relation and the second statement reads it.
  TemporalRelation merged = Run("A union B into U");
  EXPECT_EQ(merged.name(), "U");
  EXPECT_EQ(merged.size(), a_.size() + b_.size());
  TEMPUS_ASSERT_OK(engine_.mutable_catalog()->Register(merged));

  Result<std::unique_ptr<SequencedUnionStream>> direct_union =
      SequencedUnionStream::Create(ScanA(), ScanB());
  ASSERT_TRUE(direct_union.ok()) << direct_union.status().ToString();
  const TemporalRelation direct_merged =
      MustMaterialize(direct_union->get(), "U");
  Result<SortSpec> key = CoalesceSortSpec(direct_merged.schema());
  ASSERT_TRUE(key.ok()) << key.status().ToString();
  const TemporalRelation sorted = direct_merged.SortedBy(*key);
  ExpectSameAsOperator("coalesce U into C",
                       CoalesceStream::Create(VectorStream::Scan(sorted)));
  EXPECT_EQ(Run("coalesce U into C").name(), "C");
}

}  // namespace
}  // namespace tempus

#include "join/contain_join.h"

#include <memory>

#include "datagen/interval_gen.h"
#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::ExpectSameTuples;
using ::tempus::testing::MakeIntervals;
using ::tempus::testing::MustMaterialize;
using ::tempus::testing::ReferenceMaskJoin;
using ::tempus::testing::SortedByOrder;

constexpr AllenRelation kContains = AllenRelation::kContains;

/// Runs Contain-join(X, Y) under the given orders/policy against the
/// nested-loop reference.
void CheckAgainstReference(const TemporalRelation& x,
                           const TemporalRelation& y,
                           TemporalSortOrder left_order,
                           TemporalSortOrder right_order,
                           ContainJoinReadPolicy policy,
                           size_t* peak_workspace = nullptr) {
  const TemporalRelation xs = SortedByOrder(x, left_order);
  const TemporalRelation ys = SortedByOrder(y, right_order);
  ContainJoinOptions options;
  options.left_order = left_order;
  options.right_order = right_order;
  options.read_policy = policy;
  Result<std::unique_ptr<TupleStream>> join =
      MakeContainJoin(VectorStream::Scan(xs),
                      VectorStream::Scan(ys), options);
  ASSERT_TRUE(join.ok()) << join.status().ToString();
  const TemporalRelation out = MustMaterialize(join->get(), "out");
  ExpectSameTuples(out, ReferenceMaskJoin(xs, ys,
                                          AllenMask::Single(kContains)));
  EXPECT_EQ((*join)->metrics().passes_left, 1u);
  EXPECT_EQ((*join)->metrics().passes_right, 1u);
  if (peak_workspace != nullptr) {
    *peak_workspace = (*join)->metrics().peak_workspace_tuples;
  }
}

TEST(ContainJoinTest, HandCaseBothByValidFrom) {
  // X containers, Y containees.
  const TemporalRelation x =
      MakeIntervals("X", {{0, 10}, {2, 4}, {3, 20}, {15, 16}});
  const TemporalRelation y =
      MakeIntervals("Y", {{1, 3}, {2, 4}, {4, 9}, {16, 18}, {30, 31}});
  CheckAgainstReference(x, y, kByValidFromAsc, kByValidFromAsc,
                        ContainJoinReadPolicy::kTimestampSweep);
}

TEST(ContainJoinTest, PaperFigure5Example) {
  // The shape of Figure 5: overlapping X tuples sorted on TS with Y
  // tuples whose ValidFrom values fall inside the current X lifespans.
  const TemporalRelation x =
      MakeIntervals("X", {{0, 12}, {1, 7}, {2, 15}, {5, 9}, {10, 22}});
  const TemporalRelation y =
      MakeIntervals("Y", {{1, 2}, {3, 6}, {4, 14}, {6, 8}, {11, 12}});
  for (ContainJoinReadPolicy policy :
       {ContainJoinReadPolicy::kTimestampSweep,
        ContainJoinReadPolicy::kLambdaHeuristic}) {
    CheckAgainstReference(x, y, kByValidFromAsc, kByValidFromAsc, policy);
  }
}

TEST(ContainJoinTest, EqualStartsAndDuplicateIntervals) {
  const TemporalRelation x =
      MakeIntervals("X", {{0, 10}, {0, 10}, {0, 5}, {0, 3}});
  const TemporalRelation y =
      MakeIntervals("Y", {{0, 10}, {1, 3}, {1, 3}, {0, 5}});
  for (auto right : {kByValidFromAsc, kByValidToAsc}) {
    CheckAgainstReference(x, y, kByValidFromAsc, right,
                          ContainJoinReadPolicy::kTimestampSweep);
  }
}

TEST(ContainJoinTest, EmptyInputs) {
  const TemporalRelation x = MakeIntervals("X", {{0, 10}});
  const TemporalRelation empty = MakeIntervals("E", {});
  CheckAgainstReference(x, empty, kByValidFromAsc, kByValidFromAsc,
                        ContainJoinReadPolicy::kTimestampSweep);
  CheckAgainstReference(empty, x, kByValidFromAsc, kByValidFromAsc,
                        ContainJoinReadPolicy::kTimestampSweep);
  CheckAgainstReference(empty, empty, kByValidFromAsc, kByValidToAsc,
                        ContainJoinReadPolicy::kTimestampSweep);
}

TEST(ContainJoinTest, SingletonInputs) {
  const TemporalRelation container = MakeIntervals("X", {{0, 10}});
  const TemporalRelation inside = MakeIntervals("Y", {{2, 5}});
  const TemporalRelation outside = MakeIntervals("Y", {{20, 30}});
  // One matching pair, one disjoint pair, and a tuple against itself
  // (strict containment is irreflexive).
  CheckAgainstReference(container, inside, kByValidFromAsc, kByValidFromAsc,
                        ContainJoinReadPolicy::kTimestampSweep);
  CheckAgainstReference(container, outside, kByValidFromAsc, kByValidToAsc,
                        ContainJoinReadPolicy::kTimestampSweep);
  CheckAgainstReference(container, container, kByValidToDesc, kByValidToDesc,
                        ContainJoinReadPolicy::kTimestampSweep);
}

TEST(ContainJoinTest, AllSupportedOrderCombosAgree) {
  IntervalWorkloadConfig config;
  config.count = 300;
  config.mean_interarrival = 3.0;
  config.mean_duration = 20.0;
  config.seed = 77;
  Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
  config.seed = 78;
  config.mean_duration = 6.0;
  Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
  ASSERT_TRUE(x.ok() && y.ok());
  const std::pair<TemporalSortOrder, TemporalSortOrder> combos[] = {
      {kByValidFromAsc, kByValidFromAsc},
      {kByValidFromAsc, kByValidToAsc},
      {kByValidToDesc, kByValidToDesc},
      {kByValidToDesc, kByValidFromDesc},
  };
  for (const auto& [lo, ro] : combos) {
    SCOPED_TRACE(lo.ToString() + " / " + ro.ToString());
    CheckAgainstReference(*x, *y, lo, ro,
                          ContainJoinReadPolicy::kTimestampSweep);
  }
}

TEST(ContainJoinTest, LambdaPolicyMatchesSweep) {
  IntervalWorkloadConfig config;
  config.count = 400;
  config.mean_interarrival = 2.0;
  config.mean_duration = 30.0;
  config.seed = 5;
  Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
  config.seed = 6;
  config.mean_interarrival = 7.0;  // Skewed rates: the heuristic's case.
  config.mean_duration = 4.0;
  Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
  ASSERT_TRUE(x.ok() && y.ok());
  CheckAgainstReference(*x, *y, kByValidFromAsc, kByValidFromAsc,
                        ContainJoinReadPolicy::kLambdaHeuristic);
}

TEST(ContainJoinTest, WorkspaceBoundedByConcurrency) {
  IntervalWorkloadConfig config;
  config.count = 500;
  config.mean_interarrival = 4.0;
  config.mean_duration = 24.0;
  config.seed = 91;
  Result<TemporalRelation> x = GenerateIntervalRelation("X", config);
  config.seed = 92;
  config.mean_duration = 8.0;
  Result<TemporalRelation> y = GenerateIntervalRelation("Y", config);
  ASSERT_TRUE(x.ok() && y.ok());
  Result<RelationStats> xs = x->ComputeStats();
  Result<RelationStats> ys = y->ComputeStats();
  ASSERT_TRUE(xs.ok() && ys.ok());
  size_t peak = 0;
  CheckAgainstReference(*x, *y, kByValidFromAsc, kByValidFromAsc,
                        ContainJoinReadPolicy::kTimestampSweep, &peak);
  // Table 1 (a): X tuples spanning the current Y ValidFrom, plus the
  // transiently retained Y tuples between garbage collections.
  EXPECT_LE(peak, xs->max_concurrency + ys->max_concurrency + 2);
  // And decisively below the no-GC worst case.
  EXPECT_LT(peak, x->size() + y->size());
}

TEST(ContainJoinTest, RejectsInappropriateOrderings) {
  const TemporalRelation x = MakeIntervals("X", {{0, 10}});
  const std::pair<TemporalSortOrder, TemporalSortOrder> bad[] = {
      {kByValidFromAsc, kByValidFromDesc},
      {kByValidToAsc, kByValidToAsc},
      {kByValidFromDesc, kByValidFromDesc},
      {kByValidToAsc, kByValidFromAsc},
  };
  for (const auto& [lo, ro] : bad) {
    ContainJoinOptions options;
    options.left_order = lo;
    options.right_order = ro;
    Result<std::unique_ptr<TupleStream>> join =
        MakeContainJoin(VectorStream::Scan(x),
                        VectorStream::Scan(x), options);
    EXPECT_FALSE(join.ok()) << lo.ToString() << "/" << ro.ToString();
    EXPECT_EQ(join.status().code(), StatusCode::kFailedPrecondition);
  }
}

TEST(ContainJoinTest, LambdaPolicyRequiresFromFromOrdering) {
  const TemporalRelation x = MakeIntervals("X", {{0, 10}});
  ContainJoinOptions options;
  options.left_order = kByValidFromAsc;
  options.right_order = kByValidToAsc;
  options.read_policy = ContainJoinReadPolicy::kLambdaHeuristic;
  EXPECT_FALSE(MakeContainJoin(VectorStream::Scan(x),
                               VectorStream::Scan(x), options)
                   .ok());
}

TEST(ContainJoinTest, DetectsMisSortedInput) {
  const TemporalRelation x = MakeIntervals("X", {{5, 10}, {0, 20}});
  const TemporalRelation y = MakeIntervals("Y", {{6, 7}});
  ContainJoinOptions options;  // Defaults: both ValidFrom^, verification on.
  Result<std::unique_ptr<TupleStream>> join = MakeContainJoin(
      VectorStream::Scan(x), VectorStream::Scan(y), options);
  ASSERT_TRUE(join.ok());
  Result<TemporalRelation> out = Materialize(join->get(), "out");
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status().code(), StatusCode::kFailedPrecondition);
}

TEST(ContainJoinTest, ReopenProducesSameResult) {
  const TemporalRelation x = MakeIntervals("X", {{0, 9}, {1, 5}});
  const TemporalRelation y = MakeIntervals("Y", {{1, 4}, {2, 3}});
  Result<std::unique_ptr<TupleStream>> join = MakeContainJoin(
      VectorStream::Scan(x), VectorStream::Scan(y), {});
  ASSERT_TRUE(join.ok());
  const TemporalRelation first = MustMaterialize(join->get(), "a");
  const TemporalRelation second = MustMaterialize(join->get(), "b");
  ExpectSameTuples(first, second);
  EXPECT_EQ((*join)->metrics().passes_left, 2u);
}

}  // namespace
}  // namespace tempus

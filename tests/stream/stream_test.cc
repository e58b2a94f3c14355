#include "stream/stream.h"

#include "stream/basic_ops.h"

#include "gtest/gtest.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::MakeIntervals;

TEST(VectorStreamTest, ScanBorrowsRelation) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}, {3, 4}});
  auto stream = VectorStream::Scan(rel);
  TEMPUS_ASSERT_OK(stream->Open());
  Tuple t;
  Result<bool> r = stream->Next(&t);
  ASSERT_TRUE(r.ok());
  ASSERT_TRUE(r.value());
  EXPECT_EQ(t[2].time_value(), 1);
  r = stream->Next(&t);
  ASSERT_TRUE(r.ok() && r.value());
  r = stream->Next(&t);
  ASSERT_TRUE(r.ok());
  EXPECT_FALSE(r.value());
  EXPECT_EQ(stream->metrics().tuples_read_left, 2u);
}

TEST(VectorStreamTest, NextBeforeOpenFails) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}});
  auto stream = VectorStream::Scan(rel);
  Tuple t;
  Result<bool> r = stream->Next(&t);
  EXPECT_FALSE(r.ok());
  EXPECT_EQ(r.status().code(), StatusCode::kFailedPrecondition);
}

TEST(VectorStreamTest, ReopenRewindsAndCountsPasses) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}, {3, 4}});
  auto stream = VectorStream::Scan(rel);
  Result<size_t> first = DrainCount(stream.get());
  Result<size_t> second = DrainCount(stream.get());
  ASSERT_TRUE(first.ok() && second.ok());
  EXPECT_EQ(first.value(), 2u);
  EXPECT_EQ(second.value(), 2u);
  EXPECT_EQ(stream->metrics().passes_left, 2u);
}

TEST(VectorStreamTest, OwningStream) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}});
  auto stream = VectorStream::Owning(rel.schema(), rel.tuples());
  Result<size_t> n = DrainCount(stream.get());
  ASSERT_TRUE(n.ok());
  EXPECT_EQ(n.value(), 1u);
}

TEST(MaterializeTest, RoundTripsRelation) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}, {3, 4}, {5, 8}});
  auto stream = VectorStream::Scan(rel);
  Result<TemporalRelation> out = Materialize(stream.get(), "Copy");
  ASSERT_TRUE(out.ok());
  EXPECT_EQ(out->name(), "Copy");
  EXPECT_TRUE(out->EqualsIgnoringOrder(rel));
}


TEST(CollectPlanMetricsTest, RollsUpOperatorTree) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}, {3, 4}, {5, 9}});
  FilterStream filter(VectorStream::Scan(rel),
                      [](const Tuple&) -> Result<bool> { return true; });
  Result<size_t> n = DrainCount(&filter);
  ASSERT_TRUE(n.ok());
  const OperatorMetrics total = CollectPlanMetrics(filter);
  // Filter read 3 + scan read 3.
  EXPECT_EQ(total.tuples_read_left, 6u);
  EXPECT_EQ(total.tuples_emitted, 3u);
  EXPECT_EQ(total.passes_left, 2u);  // Filter pass + scan pass.
}

TEST(MetricsTest, WorkspaceAccounting) {
  OperatorMetrics m;
  m.AddWorkspace(3);
  EXPECT_EQ(m.workspace_tuples, 3u);
  EXPECT_EQ(m.peak_workspace_tuples, 3u);
  m.SubWorkspace(2);
  m.AddWorkspace(1);
  EXPECT_EQ(m.workspace_tuples, 2u);
  EXPECT_EQ(m.peak_workspace_tuples, 3u);
  m.SubWorkspace(10);  // Clamps at zero.
  EXPECT_EQ(m.workspace_tuples, 0u);
}

TEST(MetricsTest, ToStringMentionsCounters) {
  OperatorMetrics m;
  m.tuples_emitted = 7;
  EXPECT_NE(m.ToString().find("emitted=7"), std::string::npos);
}

}  // namespace
}  // namespace tempus

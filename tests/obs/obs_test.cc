// Unit tests for the observability primitives: TraceCollector span
// bookkeeping, the stable MetricsToJson encoding, duration formatting, and
// the golden-file timing normalizer.

#include <memory>

#include "gtest/gtest.h"
#include "obs/metrics_json.h"
#include "obs/plan_report.h"
#include "obs/trace.h"
#include "stream/basic_ops.h"
#include "stream/stream.h"
#include "testing/test_util.h"

namespace tempus {
namespace {

using ::tempus::testing::MakeIntervals;

TEST(TraceCollectorTest, RecordsSpansAndTimings) {
  TraceCollector trace;
  EXPECT_TRUE(trace.empty());
  const int root = trace.AddSpan("root");
  const int child = trace.AddSpan("child", root);
  trace.RecordOpen(root, 100);
  trace.RecordNext(root, 40);
  trace.RecordNext(root, 60);
  ASSERT_EQ(trace.size(), 2u);
  EXPECT_EQ(trace.span(root).label, "root");
  EXPECT_EQ(trace.span(root).parent, -1);
  EXPECT_EQ(trace.span(child).parent, root);
  EXPECT_EQ(trace.span(root).open_calls, 1u);
  EXPECT_EQ(trace.span(root).next_calls, 2u);
  EXPECT_EQ(trace.span(root).open_ns, 100u);
  EXPECT_EQ(trace.span(root).next_ns, 100u);
  EXPECT_EQ(trace.span(root).total_ns(), 200u);
  trace.Clear();
  EXPECT_TRUE(trace.empty());
}

TEST(EnableTracingTest, RegistersWholePlanAndTimesDrain) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}, {3, 4}, {5, 6}});
  FilterStream filter(VectorStream::Scan(rel),
                      [](const Tuple&) -> Result<bool> { return true; });
  filter.set_label("Filter");
  TraceCollector trace;
  filter.EnableTracing(&trace);
  ASSERT_EQ(trace.size(), 2u);  // Filter + scan child.
  EXPECT_EQ(trace.span(filter.trace_span_id()).label, "Filter");
  Tuple t;
  ASSERT_TRUE(filter.Open().ok());
  while (true) {
    Result<bool> r = filter.Next(&t);
    ASSERT_TRUE(r.ok());
    if (!r.value()) break;
  }
  const TraceSpan& span = trace.span(filter.trace_span_id());
  EXPECT_EQ(span.open_calls, 1u);
  EXPECT_EQ(span.next_calls, 4u);  // 3 rows + exhaustion.
  // The scan child was traced through the same collector.
  const TupleStream* scan = filter.children()[0];
  EXPECT_GE(scan->trace_span_id(), 0);
  EXPECT_EQ(trace.span(scan->trace_span_id()).parent, filter.trace_span_id());
}

TEST(MetricsJsonTest, StableKeyOrderAndValues) {
  OperatorMetrics m;
  m.tuples_read_left = 3;
  m.tuples_emitted = 2;
  m.workspace_inserted = 5;
  m.gc_discarded = 4;
  m.gc_checks = 6;
  m.workspace_tuples = 1;
  m.peak_workspace_tuples = 2;
  m.buffer_hits = 7;
  m.buffer_misses = 8;
  m.buffer_evictions = 9;
  m.buffer_bytes_read = 10;
  m.buffer_bytes_written = 11;
  m.batches = 12;
  m.batch_rows = 13;
  m.kernel_rows_in = 14;
  m.kernel_rows_out = 15;
  const std::string json = MetricsToJson(m);
  EXPECT_EQ(json,
            "{\"tuples_read_left\":3,\"tuples_read_right\":0,"
            "\"tuples_emitted\":2,\"comparisons\":0,\"passes_left\":0,"
            "\"passes_right\":0,\"merge_comparisons\":0,"
            "\"workspace_inserted\":5,\"gc_discarded\":4,\"gc_checks\":6,"
            "\"workspace_tuples\":1,\"peak_workspace_tuples\":2,"
            "\"buffer_hits\":7,\"buffer_misses\":8,\"buffer_evictions\":9,"
            "\"buffer_bytes_read\":10,\"buffer_bytes_written\":11,"
            "\"batches\":12,\"batch_rows\":13,"
            "\"kernel_rows_in\":14,\"kernel_rows_out\":15}");
}

TEST(MetricsJsonTest, EscapesStrings) {
  EXPECT_EQ(JsonEscape("a\"b\\c\n"), "a\\\"b\\\\c\\n");
}

TEST(FormatDurationTest, PicksHumanUnits) {
  EXPECT_EQ(FormatDuration(812), "812ns");
  EXPECT_EQ(FormatDuration(1500), "1.50us");
  EXPECT_EQ(FormatDuration(2500000), "2.50ms");
  EXPECT_EQ(FormatDuration(3210000000ull), "3.21s");
}

TEST(NormalizeTimingsTest, ReplacesDurationTokens) {
  EXPECT_EQ(NormalizeTimings("time=1.72ms self=207.28us"),
            "time=_ self=_");
  EXPECT_EQ(NormalizeTimings("time=812ns x=9"), "time=_ x=9");
  EXPECT_EQ(NormalizeTimings("time=3.21s done"), "time=_ done");
}

TEST(NormalizeTimingsTest, LeavesCountersAndLabelsAlone) {
  // Counters, sizes, and label text must survive normalization so goldens
  // still pin the interesting numbers.
  const std::string line =
      "(actual rows=1140 read=(1140,1140) cmps=5936 peak_ws=500 gc=4/6";
  EXPECT_EQ(NormalizeTimings(line), line);
  EXPECT_EQ(NormalizeTimings("Scan Faculty [1140 tuples]"),
            "Scan Faculty [1140 tuples]");
  // "4ms" embedded in an identifier is not a duration.
  EXPECT_EQ(NormalizeTimings("name_4ms rate"), "name_4ms rate");
}

TEST(PlanReportTest, RendersTreeAndAnalyzedCounters) {
  const TemporalRelation rel = MakeIntervals("R", {{1, 2}, {3, 4}});
  FilterStream filter(VectorStream::Scan(rel),
                      [](const Tuple&) -> Result<bool> { return true; });
  filter.set_label("Filter");
  const std::string tree = RenderPlanTree(filter);
  EXPECT_NE(tree.find("Filter\n"), std::string::npos);

  TraceCollector trace;
  filter.EnableTracing(&trace);
  ASSERT_TRUE(filter.Open().ok());
  Tuple t;
  while (true) {
    Result<bool> r = filter.Next(&t);
    ASSERT_TRUE(r.ok());
    if (!r.value()) break;
  }
  const std::string report = RenderAnalyzedPlan(filter, trace);
  EXPECT_NE(report.find("Filter"), std::string::npos);
  EXPECT_NE(report.find("actual rows=2"), std::string::npos);
  EXPECT_NE(report.find("time="), std::string::npos);

  const std::string json = PlanToJson(filter, &trace);
  EXPECT_EQ(json.front(), '{');
  EXPECT_EQ(json.back(), '}');
  EXPECT_NE(json.find("\"label\":\"Filter\""), std::string::npos);
  EXPECT_NE(json.find("\"children\":[{"), std::string::npos);
  EXPECT_NE(json.find("\"next_calls\""), std::string::npos);
}

}  // namespace
}  // namespace tempus

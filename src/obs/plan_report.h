#ifndef TEMPUS_OBS_PLAN_REPORT_H_
#define TEMPUS_OBS_PLAN_REPORT_H_

#include <cstdint>
#include <string>

#include "obs/trace.h"
#include "stream/stream.h"

namespace tempus {

/// Formats a nanosecond duration with an adaptive unit ("812ns", "1.42us",
/// "3.70ms", "2.15s").
std::string FormatDuration(uint64_t ns);

/// Renders the operator tree's labels as an indented plan, one node per
/// line (the runtime twin of the planner's EXPLAIN text).
std::string RenderPlanTree(const TupleStream& root);

/// Renders the EXPLAIN ANALYZE view: for every plan node its label, an
/// "(actual ...)" line with rows emitted, reads, comparisons, passes, peak
/// workspace, GC accounting, and wall time (total and self).
/// Pass the collector the tree was traced with; nodes without a span
/// render their counters with no timing.
std::string RenderAnalyzedPlan(const TupleStream& root,
                               const TraceCollector& trace);

/// Renders the plan tree (and, when `trace` is non-null, its spans) as a
/// single-line JSON document:
///   {"label":...,"metrics":{...},"open_ns":...,"next_ns":...,
///    "open_calls":...,"next_calls":...,"children":[...]}
/// Timing keys are omitted when the node has no span.
std::string PlanToJson(const TupleStream& root, const TraceCollector* trace);

/// Replaces every duration token ("812ns", "1.42us", "3.70ms", "2.15s")
/// with "_" so EXPLAIN ANALYZE output can be compared against golden
/// files; all other counters are deterministic and left untouched.
std::string NormalizeTimings(const std::string& text);

}  // namespace tempus

#endif  // TEMPUS_OBS_PLAN_REPORT_H_

#ifndef TEMPUS_OBS_METRICS_JSON_H_
#define TEMPUS_OBS_METRICS_JSON_H_

#include <string>

#include "stream/metrics.h"

namespace tempus {

/// Escapes a string for embedding inside a JSON string literal (quotes,
/// backslashes, and control characters; non-ASCII bytes pass through).
std::string JsonEscape(const std::string& text);

/// Renders `metrics` as a single-line JSON object with a stable key order:
///   {"tuples_read_left":..,"tuples_read_right":..,"tuples_emitted":..,
///    "comparisons":..,"passes_left":..,"passes_right":..,
///    "merge_comparisons":..,"workspace_inserted":..,"gc_discarded":..,
///    "gc_checks":..,"workspace_tuples":..,"peak_workspace_tuples":..}
/// Benchmarks and the TQL shell rely on this order staying stable, so new
/// keys must be appended at the end.
std::string MetricsToJson(const OperatorMetrics& metrics);

}  // namespace tempus

#endif  // TEMPUS_OBS_METRICS_JSON_H_

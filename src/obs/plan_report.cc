#include "obs/plan_report.h"

#include <cctype>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics_json.h"

namespace tempus {
namespace {

const char* NodeLabel(const TupleStream& node) {
  return node.label().empty() ? "op" : node.label().c_str();
}

/// Finds the span EnableTracing registered for `node`, or nullptr.
const TraceSpan* SpanFor(const TupleStream& node,
                         const TraceCollector& trace) {
  const int id = node.trace_span_id();
  if (id < 0 || static_cast<size_t>(id) >= trace.size()) return nullptr;
  return &trace.span(id);
}

uint64_t SubtreeChildrenNs(const TupleStream& node,
                           const TraceCollector& trace) {
  uint64_t total = 0;
  for (const TupleStream* child : node.children()) {
    if (const TraceSpan* span = SpanFor(*child, trace)) {
      total += span->total_ns();
    }
  }
  return total;
}

void RenderTree(const TupleStream& node, size_t depth, std::string* out) {
  out->append(depth * 2, ' ');
  out->append(NodeLabel(node));
  out->push_back('\n');
  for (const TupleStream* child : node.children()) {
    RenderTree(*child, depth + 1, out);
  }
}

void AppendActualLine(const OperatorMetrics& m, const PlanEstimate& est,
                      const TraceSpan* span, uint64_t children_ns, bool leaf,
                      size_t depth, std::string* out) {
  // Leaf scans count each tuple once, as a read (CollectPlanMetrics would
  // otherwise double-count it); report that read count as the actual rows.
  const uint64_t rows =
      leaf && m.tuples_emitted == 0 ? m.tuples_read_left : m.tuples_emitted;
  out->append(depth * 2, ' ');
  if (est.valid) {
    // Planner estimate beside the measured counters, so per-operator
    // estimation error is visible at a glance (docs/OPTIMIZER.md).
    out->append(
        StrFormat("(est rows=%.0f ws=%.0f) ", est.rows, est.workspace));
  }
  out->append(StrFormat(
      "(actual rows=%llu read=(%llu,%llu) cmps=%llu passes=(%llu,%llu) "
      "peak_ws=%zu ws_in=%llu gc=%llu/%llu",
      static_cast<unsigned long long>(rows),
      static_cast<unsigned long long>(m.tuples_read_left),
      static_cast<unsigned long long>(m.tuples_read_right),
      static_cast<unsigned long long>(m.comparisons),
      static_cast<unsigned long long>(m.passes_left),
      static_cast<unsigned long long>(m.passes_right),
      m.peak_workspace_tuples,
      static_cast<unsigned long long>(m.workspace_inserted),
      static_cast<unsigned long long>(m.gc_discarded),
      static_cast<unsigned long long>(m.gc_checks)));
  if (m.batches > 0) {
    out->append(StrFormat(" batches=%llu rows/b=%.1f",
                          static_cast<unsigned long long>(m.batches),
                          static_cast<double>(m.batch_rows) /
                              static_cast<double>(m.batches)));
  }
  if (m.kernel_rows_in > 0) {
    out->append(
        StrFormat(" kernel=(in=%llu out=%llu)",
                  static_cast<unsigned long long>(m.kernel_rows_in),
                  static_cast<unsigned long long>(m.kernel_rows_out)));
  }
  if (m.buffer_hits + m.buffer_misses + m.buffer_evictions +
          m.buffer_bytes_written >
      0) {
    out->append(StrFormat(
        " buf=(hit=%llu miss=%llu evict=%llu rB=%llu wB=%llu)",
        static_cast<unsigned long long>(m.buffer_hits),
        static_cast<unsigned long long>(m.buffer_misses),
        static_cast<unsigned long long>(m.buffer_evictions),
        static_cast<unsigned long long>(m.buffer_bytes_read),
        static_cast<unsigned long long>(m.buffer_bytes_written)));
  }
  if (span != nullptr) {
    const uint64_t total = span->total_ns();
    const uint64_t self = total > children_ns ? total - children_ns : 0;
    out->append(StrFormat(" time=%s self=%s", FormatDuration(total).c_str(),
                          FormatDuration(self).c_str()));
  }
  out->append(")\n");
}

void RenderAnalyzed(const TupleStream& node, const TraceCollector& trace,
                    size_t depth, std::string* out) {
  out->append(depth * 2, ' ');
  out->append(NodeLabel(node));
  out->push_back('\n');
  const TraceSpan* span = SpanFor(node, trace);
  AppendActualLine(node.metrics(), node.estimate(), span,
                   SubtreeChildrenNs(node, trace), node.children().empty(),
                   depth + 1, out);
  for (const TupleStream* child : node.children()) {
    RenderAnalyzed(*child, trace, depth + 1, out);
  }
}

void JsonNode(const TupleStream& node, const TraceCollector* trace,
              std::string* out) {
  out->append(StrFormat("{\"label\":\"%s\",\"metrics\":",
                        JsonEscape(NodeLabel(node)).c_str()));
  out->append(MetricsToJson(node.metrics()));
  if (node.estimate().valid) {
    out->append(StrFormat(",\"est\":{\"rows\":%.1f,\"workspace\":%.1f}",
                          node.estimate().rows, node.estimate().workspace));
  }
  const TraceSpan* span =
      trace == nullptr ? nullptr : SpanFor(node, *trace);
  if (span != nullptr) {
    out->append(StrFormat(
        ",\"open_ns\":%llu,\"next_ns\":%llu,\"open_calls\":%llu,"
        "\"next_calls\":%llu",
        static_cast<unsigned long long>(span->open_ns),
        static_cast<unsigned long long>(span->next_ns),
        static_cast<unsigned long long>(span->open_calls),
        static_cast<unsigned long long>(span->next_calls)));
  }
  out->append(",\"children\":[");
  bool first = true;
  for (const TupleStream* child : node.children()) {
    if (!first) out->push_back(',');
    first = false;
    JsonNode(*child, trace, out);
  }
  out->append("]}");
}

}  // namespace

std::string FormatDuration(uint64_t ns) {
  if (ns < 1000) {
    return StrFormat("%lluns", static_cast<unsigned long long>(ns));
  }
  const double us = static_cast<double>(ns) / 1000.0;
  if (us < 1000.0) return StrFormat("%.2fus", us);
  const double ms = us / 1000.0;
  if (ms < 1000.0) return StrFormat("%.2fms", ms);
  return StrFormat("%.2fs", ms / 1000.0);
}

std::string RenderPlanTree(const TupleStream& root) {
  std::string out;
  RenderTree(root, 0, &out);
  return out;
}

std::string RenderAnalyzedPlan(const TupleStream& root,
                               const TraceCollector& trace) {
  std::string out;
  RenderAnalyzed(root, trace, 0, &out);
  return out;
}

std::string PlanToJson(const TupleStream& root, const TraceCollector* trace) {
  std::string out;
  JsonNode(root, trace, &out);
  return out;
}

std::string NormalizeTimings(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (!std::isdigit(static_cast<unsigned char>(text[i]))) {
      out.push_back(text[i++]);
      continue;
    }
    // A duration token only follows a non-alphanumeric boundary ("=812ns"
    // yes, "x812ns" no), so counters embedded in labels survive.
    if (i > 0 && (std::isalnum(static_cast<unsigned char>(text[i - 1])) ||
                  text[i - 1] == '_' || text[i - 1] == '.')) {
      out.push_back(text[i++]);
      continue;
    }
    size_t j = i;
    while (j < text.size() &&
           std::isdigit(static_cast<unsigned char>(text[j]))) {
      ++j;
    }
    if (j < text.size() && text[j] == '.') {
      ++j;
      while (j < text.size() &&
             std::isdigit(static_cast<unsigned char>(text[j]))) {
        ++j;
      }
    }
    size_t unit = 0;
    if (j + 1 < text.size() &&
        (text.compare(j, 2, "ns") == 0 || text.compare(j, 2, "us") == 0 ||
         text.compare(j, 2, "ms") == 0)) {
      unit = 2;
    } else if (j < text.size() && text[j] == 's') {
      unit = 1;
    }
    const size_t end = j + unit;
    const bool bounded =
        end >= text.size() ||
        (!std::isalnum(static_cast<unsigned char>(text[end])) &&
         text[end] != '_');
    if (unit > 0 && bounded) {
      out.push_back('_');
      i = end;
    } else {
      out.append(text, i, j - i);
      i = j;
    }
  }
  return out;
}

}  // namespace tempus

#include "obs/metrics_json.h"

#include "common/string_util.h"

namespace tempus {

std::string JsonEscape(const std::string& text) {
  std::string out;
  out.reserve(text.size() + 2);
  for (char c : text) {
    switch (c) {
      case '"':
        out += "\\\"";
        break;
      case '\\':
        out += "\\\\";
        break;
      case '\n':
        out += "\\n";
        break;
      case '\r':
        out += "\\r";
        break;
      case '\t':
        out += "\\t";
        break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          out += StrFormat("\\u%04x", c);
        } else {
          out += c;
        }
    }
  }
  return out;
}

std::string MetricsToJson(const OperatorMetrics& m) {
  return StrFormat(
      "{\"tuples_read_left\":%llu,\"tuples_read_right\":%llu,"
      "\"tuples_emitted\":%llu,\"comparisons\":%llu,\"passes_left\":%llu,"
      "\"passes_right\":%llu,\"merge_comparisons\":%llu,"
      "\"workspace_inserted\":%llu,\"gc_discarded\":%llu,\"gc_checks\":%llu,"
      "\"workspace_tuples\":%zu,\"peak_workspace_tuples\":%zu,"
      "\"buffer_hits\":%llu,\"buffer_misses\":%llu,"
      "\"buffer_evictions\":%llu,\"buffer_bytes_read\":%llu,"
      "\"buffer_bytes_written\":%llu,"
      "\"batches\":%llu,\"batch_rows\":%llu,"
      "\"kernel_rows_in\":%llu,\"kernel_rows_out\":%llu}",
      static_cast<unsigned long long>(m.tuples_read_left),
      static_cast<unsigned long long>(m.tuples_read_right),
      static_cast<unsigned long long>(m.tuples_emitted),
      static_cast<unsigned long long>(m.comparisons),
      static_cast<unsigned long long>(m.passes_left),
      static_cast<unsigned long long>(m.passes_right),
      static_cast<unsigned long long>(m.merge_comparisons),
      static_cast<unsigned long long>(m.workspace_inserted),
      static_cast<unsigned long long>(m.gc_discarded),
      static_cast<unsigned long long>(m.gc_checks), m.workspace_tuples,
      m.peak_workspace_tuples,
      static_cast<unsigned long long>(m.buffer_hits),
      static_cast<unsigned long long>(m.buffer_misses),
      static_cast<unsigned long long>(m.buffer_evictions),
      static_cast<unsigned long long>(m.buffer_bytes_read),
      static_cast<unsigned long long>(m.buffer_bytes_written),
      static_cast<unsigned long long>(m.batches),
      static_cast<unsigned long long>(m.batch_rows),
      static_cast<unsigned long long>(m.kernel_rows_in),
      static_cast<unsigned long long>(m.kernel_rows_out));
}

}  // namespace tempus

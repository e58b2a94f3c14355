#include "stream/metrics.h"

#include "common/string_util.h"

namespace tempus {

std::string OperatorMetrics::ToString() const {
  std::string out = StrFormat(
      "read=(%llu,%llu) emitted=%llu cmps=%llu passes=(%llu,%llu) "
      "peak_ws=%zu",
      static_cast<unsigned long long>(tuples_read_left),
      static_cast<unsigned long long>(tuples_read_right),
      static_cast<unsigned long long>(tuples_emitted),
      static_cast<unsigned long long>(comparisons),
      static_cast<unsigned long long>(passes_left),
      static_cast<unsigned long long>(passes_right), peak_workspace_tuples);
  if (workspace_inserted > 0 || gc_checks > 0) {
    out += StrFormat(" ws_in=%llu gc=(%llu/%llu)",
                     static_cast<unsigned long long>(workspace_inserted),
                     static_cast<unsigned long long>(gc_discarded),
                     static_cast<unsigned long long>(gc_checks));
  }
  if (batches > 0) {
    out += StrFormat(" batches=%llu rows/b=%.1f",
                     static_cast<unsigned long long>(batches),
                     static_cast<double>(batch_rows) /
                         static_cast<double>(batches));
  }
  if (kernel_rows_in > 0) {
    out += StrFormat(" kernel=(in=%llu out=%llu)",
                     static_cast<unsigned long long>(kernel_rows_in),
                     static_cast<unsigned long long>(kernel_rows_out));
  }
  if (buffer_hits + buffer_misses + buffer_evictions +
          buffer_bytes_written >
      0) {
    out += StrFormat(" buf=(hit=%llu miss=%llu evict=%llu rB=%llu wB=%llu)",
                     static_cast<unsigned long long>(buffer_hits),
                     static_cast<unsigned long long>(buffer_misses),
                     static_cast<unsigned long long>(buffer_evictions),
                     static_cast<unsigned long long>(buffer_bytes_read),
                     static_cast<unsigned long long>(buffer_bytes_written));
  }
  return out;
}

}  // namespace tempus

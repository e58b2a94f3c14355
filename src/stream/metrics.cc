#include "stream/metrics.h"

#include "common/string_util.h"

namespace tempus {

OperatorMetrics& OperatorMetrics::operator+=(const OperatorMetrics& m) {
  tuples_read_left += m.tuples_read_left;
  tuples_read_right += m.tuples_read_right;
  tuples_emitted += m.tuples_emitted;
  comparisons += m.comparisons;
  passes_left += m.passes_left;
  passes_right += m.passes_right;
  merge_comparisons += m.merge_comparisons;
  workspace_inserted += m.workspace_inserted;
  gc_discarded += m.gc_discarded;
  gc_checks += m.gc_checks;
  workspace_tuples += m.workspace_tuples;
  peak_workspace_tuples += m.peak_workspace_tuples;
  batches += m.batches;
  batch_rows += m.batch_rows;
  kernel_rows_in += m.kernel_rows_in;
  kernel_rows_out += m.kernel_rows_out;
  buffer_hits += m.buffer_hits;
  buffer_misses += m.buffer_misses;
  buffer_evictions += m.buffer_evictions;
  buffer_bytes_read += m.buffer_bytes_read;
  buffer_bytes_written += m.buffer_bytes_written;
  return *this;
}

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

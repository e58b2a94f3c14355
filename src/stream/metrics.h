#ifndef TEMPUS_STREAM_METRICS_H_
#define TEMPUS_STREAM_METRICS_H_

#include <cstddef>
#include <cstdint>
#include <string>

namespace tempus {

/// Cost and state accounting for a stream operator. These counters realize
/// the three tradeoff axes of Section 4.1:
///   1. local workspace size      -> workspace_tuples / peak_workspace_tuples
///   2. sort order of inputs      -> recorded by the plan, not here
///   3. passes over input streams -> passes_left / passes_right
/// Input buffers (the paper's <Buffer-x, Buffer-y>) are NOT counted as
/// workspace; workspace counts state tuples only, matching the paper's
/// accounting ("the local workspace is composed of only a state tuple and
/// an input buffer").
///
/// Garbage-collection accounting: AddWorkspace() feeds the cumulative
/// `workspace_inserted` and SubWorkspace() feeds `gc_discarded` (state
/// tuples retired after their last possible use, whether swept as garbage
/// or consumed by emission), so over any fresh drain
///   workspace_inserted == gc_discarded + workspace_tuples
/// holds identically for every operator. ResetWorkspace() (used by Open()
/// rewinds) retires any leftover live state the same way, so the identity
/// is cumulative — it survives re-drains of the same operator.
struct OperatorMetrics {
  uint64_t tuples_read_left = 0;
  uint64_t tuples_read_right = 0;
  uint64_t tuples_emitted = 0;
  /// Predicate / key comparisons evaluated (the conventional-vs-stream cost
  /// proxy used by the Figure 8 benchmark).
  uint64_t comparisons = 0;
  uint64_t passes_left = 0;
  uint64_t passes_right = 0;
  /// Unused: kept only because tempusbench/harness.cc reads it.
  uint64_t workers = 0;
  /// Comparisons spent choosing the next tuple of two ordered inputs in a
  /// sequenced union/intersect merge.
  uint64_t merge_comparisons = 0;
  /// State tuples ever inserted into the workspace (cumulative).
  uint64_t workspace_inserted = 0;
  /// State tuples retired from the workspace (GC sweeps + consumed state).
  uint64_t gc_discarded = 0;
  /// Garbage-collection sweeps attempted (paper Section 4.2 GC criteria).
  uint64_t gc_checks = 0;
  size_t workspace_tuples = 0;
  size_t peak_workspace_tuples = 0;
  /// Batch-at-a-time production (docs/BATCH.md): batches handed out by
  /// this operator's NextBatch() and the rows they carried. Zero when the
  /// operator was only ever pulled tuple-at-a-time.
  uint64_t batches = 0;
  uint64_t batch_rows = 0;
  /// Vectorized expression kernels (docs/BATCH.md): rows entering and
  /// surviving kernel evaluation over batch selection vectors. Zero when
  /// the operator ran the interpreted per-row path (or was pulled
  /// tuple-at-a-time).
  uint64_t kernel_rows_in = 0;
  uint64_t kernel_rows_out = 0;
  /// Buffer-pool traffic attributed to this operator (disk-backed scans
  /// and spills; zero for purely in-memory operators). docs/STORAGE.md.
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_evictions = 0;
  uint64_t buffer_bytes_read = 0;
  uint64_t buffer_bytes_written = 0;

  void AddWorkspace(size_t n = 1) {
    workspace_tuples += n;
    workspace_inserted += n;
    if (workspace_tuples > peak_workspace_tuples) {
      peak_workspace_tuples = workspace_tuples;
    }
  }
  void SubWorkspace(size_t n = 1) {
    const size_t dropped = n > workspace_tuples ? workspace_tuples : n;
    gc_discarded += dropped;
    workspace_tuples -= dropped;
  }
  /// Clears the live workspace count for an Open() rewind that rebuilds
  /// state from scratch. Leftover live state is retired via gc_discarded
  /// so the insertion ledger stays balanced across re-drains.
  void ResetWorkspace() {
    gc_discarded += workspace_tuples;
    workspace_tuples = 0;
  }

  /// Field-wise sum of every counter in `m` (`workers` aside) — the one
  /// rollup behind plan-wide metrics and the server's totals.
  OperatorMetrics& operator+=(const OperatorMetrics& m);

  std::string ToString() const;
};

}  // namespace tempus

#endif  // TEMPUS_STREAM_METRICS_H_

#ifndef TEMPUS_TESTING_DIFFERENTIAL_H_
#define TEMPUS_TESTING_DIFFERENTIAL_H_

#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "common/result.h"
#include "join/join_common.h"
#include "testing/oracle.h"
#include "testing/workload.h"

namespace tempus {
namespace testing {

/// How the production side of a differential case executes.
enum class ExecMode {
  kSequential,  ///< The paper's single-threaded stream operator.
  kNoGc,        ///< NoGcStreamJoin / NestedLoopSemijoin: order-free,
                ///< unbounded-workspace degenerate stream processing.
};

std::string_view ExecModeName(ExecMode mode);
Result<ExecMode> ExecModeFromName(std::string_view name);

/// Where the production operands live while the operator runs.
enum class StorageMode {
  kMemory,  ///< Borrowed in-memory vectors (the default).
  kDisk,    ///< Spilled to compressed page files and scanned through a
            ///< private BufferManager (docs/STORAGE.md) — exercises the
            ///< codec, pin/unpin, eviction, and readahead under the same
            ///< byte-identical oracle comparison.
};

std::string_view StorageModeName(StorageMode mode);
Result<StorageMode> StorageModeFromName(std::string_view name);

/// Kernel axis (docs/BATCH.md): when not kOff the harness wraps the
/// case's plan in a compiled endpoint FilterStream whose threshold is the
/// median of the output's first time column — a deterministic predicate
/// that typically splits the output — and filters the oracle identically,
/// so the comparison covers the expression-kernel layer end to end.
enum class KernelMode {
  kOff,     ///< No wrapper filter; the bare operator runs.
  kVector,  ///< Compiled filter on the vectorized selection-vector path.
  kInterp,  ///< Same compiled filter forced onto the per-row path.
};

std::string_view KernelModeName(KernelMode mode);
Result<KernelMode> KernelModeFromName(std::string_view name);

/// Stable CLI token for a sort order: "from-asc", "from-desc", "to-asc",
/// "to-desc".
std::string_view OrderToken(TemporalSortOrder order);
Result<TemporalSortOrder> OrderFromToken(std::string_view token);

/// One fully specified differential check. Both operands share the
/// distribution/arrangement/count; the right operand derives its own seed
/// (right_seed, or a fixed mix of `seed` when 0) so the relations differ.
struct DifferentialCase {
  PairwiseOp op = PairwiseOp::kContainJoin;
  ExecMode mode = ExecMode::kSequential;
  Distribution distribution = Distribution::kRandomMix;
  Arrangement arrangement = Arrangement::kShuffled;
  size_t count = 64;
  uint64_t seed = 1;
  uint64_t right_seed = 0;  // 0 derives from `seed`.
  TemporalSortOrder left_order = kByValidFromAsc;
  TemporalSortOrder right_order = kByValidFromAsc;
  StorageMode storage = StorageMode::kMemory;
  /// kDisk only: frame budget of the case's private buffer pool (0 uses
  /// DefaultFrameBudget()). Budgets far below the dataset's page count
  /// force eviction on every scan pass.
  size_t frame_budget = 0;
  /// kDisk only: tuples packed per on-disk page.
  size_t tuples_per_page = 8;
  /// Batch axis (docs/BATCH.md): the operators run with batches of this
  /// many rows (0 means DefaultBatchSize()) and the plan drains through
  /// NextBatch(). A stream-mode case at any size other than 1 also runs
  /// the same case at batch 1, whose output must match it byte for byte
  /// and in order.
  size_t batch_size = 0;
  /// Kernel axis: kVector/kInterp wrap the plan (and its batch-1 run) in
  /// the deterministic compiled endpoint filter described at KernelMode
  /// and filter the oracle identically.
  KernelMode kernel = KernelMode::kOff;
};

struct DifferentialResult {
  /// Engine and oracle outputs are byte-identical after canonical sorting.
  bool match = false;
  /// The instantiated Table 1-3 workspace bound held (always true when
  /// bound_checked is false — the no-GC mode has no paper bound).
  bool bound_ok = true;
  bool bound_checked = false;
  /// workspace_inserted == gc_discarded + workspace_tuples over the plan.
  bool ledger_ok = false;
  /// Stream mode: the output equals the same case's output at batch 1,
  /// byte for byte and in order, and that run's ledger also balances.
  bool batch_one_ok = true;
  /// Stream mode: the output respects the operator's promised output
  /// order (a semijoin keeps its emitted operand's order); true for
  /// operators that promise none.
  bool order_ok = true;
  size_t oracle_tuples = 0;
  size_t engine_tuples = 0;
  size_t peak_workspace = 0;
  size_t bound = 0;
  /// kDisk only: the case's private-pool counters after the run (all zero
  /// in kMemory mode). A budget smaller than the spilled page count shows
  /// up here as nonzero evictions.
  uint64_t buffer_misses = 0;
  uint64_t buffer_evictions = 0;
  double compression_ratio = 0.0;
  /// First line of divergence (empty when match).
  std::string diff;

  bool ok() const {
    return match && bound_ok && ledger_ok && batch_one_ok && order_ok;
  }
};

/// The (left, right) order combinations the stream operator
/// accepts. Order-free operators (Before-join/semijoin, equi-join) return
/// three input arrangements since any order works; self-semijoins use only
/// the left element of each pair. The sequenced operators (outer/anti
/// joins, set operations, coalescing) accept exactly ValidFrom^ on both
/// sides — coalescing ignores the tokens entirely and sorts its input by
/// the coalescing key.
std::vector<std::pair<TemporalSortOrder, TemporalSortOrder>> SupportedOrders(
    PairwiseOp op);

/// Whether the operator has an order-free no-GC degenerate twin
/// (NoGcStreamJoin / NestedLoopSemijoin). The sequenced operators do not:
/// their outputs are derived interval sets (gaps, residuals, merged
/// maximal intervals), not filtered pairs, so ExecMode::kNoGc cases only
/// exist for the Figure 2 operator set.
bool HasNoGcMode(PairwiseOp op);

/// Generates the operands, evaluates the oracle and the production
/// configuration, and compares. Returns an error only when the harness
/// itself cannot run (bad spec, operator construction failure, execution
/// error); a mismatch is reported in the result, not as an error.
Result<DifferentialResult> RunDifferentialCase(const DifferentialCase& c);

/// One-line reproduction command for a failing case, suitable for pasting
/// into a shell next to the built examples/ directory.
std::string ReproCommand(const DifferentialCase& c);

}  // namespace testing
}  // namespace tempus

#endif  // TEMPUS_TESTING_DIFFERENTIAL_H_

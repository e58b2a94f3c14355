// tempus_check: differential-oracle harness CLI.
//
// Runs one differential case (production operator vs. the naive oracle)
// when given explicit flags, or sweeps every operator x supported order
// (plus the no-GC mode) over the adversarial distributions when invoked
// with --sweep.
// Exits nonzero on any mismatch, bound violation, or ledger break; every
// failure prints a one-line repro command.
//
//   tempus_check --sweep [--count=64] [--seed=1] [--storage=disk]
//   tempus_check --sweep --batch=1,3,64,1024
//   tempus_check --op=contain-join --mode=seq --dist=nested-chains
//       --arrangement=shuffled --count=64 --seed=7
//       --left_order=from-asc --right_order=from-asc
//       --storage=disk --frames=4 --page=8 --batch=64
//
// --storage=disk spills both operands to compressed page files and scans
// them through a private buffer pool of --frames frames (0 = the
// TEMPUS_FRAME_BUDGET default), --page tuples per page — the same
// byte-identical oracle comparison, now exercising the storage stack.
//
// --batch=K plans the batch-at-a-time operators (docs/BATCH.md) with
// batches of K rows, drains through NextBatch(), and additionally requires
// the output to be byte-identical to the tuple-at-a-time twin of the same
// case. A comma list (--batch=1,3,64,1024) repeats each case at every
// listed size; under --sweep this multiplies the stream-mode cases.
//
// --kernel=vector wraps each case's plan in the compiled endpoint filter
// of the expression-kernel layer (vectorized selection-vector path);
// --kernel=interp forces the same compiled filter onto the per-row path.
// The oracle is filtered identically, so both modes must stay
// byte-identical to it — and to each other across repeated invocations.
// A comma list (--kernel=vector,interp) repeats each case per mode.

#include <cstdio>
#include <cstdlib>
#include <string>
#include <string_view>
#include <vector>

#include "testing/differential.h"

namespace {

using tempus::testing::DifferentialCase;
using tempus::testing::DifferentialResult;
using tempus::testing::KernelMode;
using tempus::testing::ReproCommand;
using tempus::testing::RunDifferentialCase;

bool ConsumeFlag(std::string_view arg, std::string_view name,
                 std::string_view* value) {
  if (arg.size() < name.size() + 3 || arg.substr(0, 2) != "--") return false;
  arg.remove_prefix(2);
  if (arg.substr(0, name.size()) != name || arg[name.size()] != '=') {
    return false;
  }
  *value = arg.substr(name.size() + 1);
  return true;
}

/// Parses "K" or "K1,K2,..." into batch sizes. Empty result means a parse
/// error.
std::vector<size_t> ParseBatchList(std::string_view v) {
  std::vector<size_t> sizes;
  while (!v.empty()) {
    const size_t comma = v.find(',');
    const std::string token(v.substr(0, comma));
    if (token.empty()) return {};
    char* end = nullptr;
    const unsigned long long parsed = std::strtoull(token.c_str(), &end, 10);
    if (end == nullptr || *end != '\0') return {};
    sizes.push_back(static_cast<size_t>(parsed));
    if (comma == std::string_view::npos) break;
    v.remove_prefix(comma + 1);
  }
  return sizes;
}

/// Parses "off|vector|interp" or a comma list of them. Empty result means
/// a parse error.
std::vector<KernelMode> ParseKernelList(std::string_view v) {
  std::vector<KernelMode> modes;
  while (!v.empty()) {
    const size_t comma = v.find(',');
    auto mode = tempus::testing::KernelModeFromName(v.substr(0, comma));
    if (!mode.ok()) return {};
    modes.push_back(*mode);
    if (comma == std::string_view::npos) break;
    v.remove_prefix(comma + 1);
  }
  return modes;
}

int RunCase(const DifferentialCase& c, bool verbose) {
  tempus::Result<DifferentialResult> result = RunDifferentialCase(c);
  if (!result.ok()) {
    std::fprintf(stderr, "FAIL (harness error: %s)\n  repro: %s\n",
                 result.status().ToString().c_str(),
                 ReproCommand(c).c_str());
    return 1;
  }
  if (!result->ok()) {
    std::fprintf(stderr,
                 "FAIL match=%d bound_ok=%d ledger_ok=%d tuple_twin_ok=%d "
                 "engine=%zu oracle=%zu peak=%zu bound=%zu\n"
                 "  diff: %s\n  repro: %s\n",
                 result->match ? 1 : 0, result->bound_ok ? 1 : 0,
                 result->ledger_ok ? 1 : 0, result->tuple_twin_ok ? 1 : 0,
                 result->engine_tuples, result->oracle_tuples,
                 result->peak_workspace, result->bound, result->diff.c_str(),
                 ReproCommand(c).c_str());
    return 1;
  }
  if (verbose) {
    std::printf("OK   %-24s %-4s tuples=%zu peak=%zu%s%s%s\n",
                std::string(PairwiseOpName(c.op)).c_str(),
                std::string(ExecModeName(c.mode)).c_str(),
                result->engine_tuples, result->peak_workspace,
                result->bound_checked
                    ? (" bound=" + std::to_string(result->bound)).c_str()
                    : "",
                c.batch_size > 0
                    ? (" batch=" + std::to_string(c.batch_size)).c_str()
                    : "",
                c.kernel != KernelMode::kOff
                    ? (std::string(" kernel=") +
                       std::string(tempus::testing::KernelModeName(c.kernel)))
                          .c_str()
                    : "");
  }
  return 0;
}

int Sweep(const DifferentialCase& base, const std::vector<size_t>& batches,
          const std::vector<KernelMode>& kernels, bool verbose) {
  const size_t count = base.count;
  const uint64_t seed = base.seed;
  int failures = 0;
  size_t cases = 0;
  for (tempus::testing::PairwiseOp op : tempus::testing::AllPairwiseOps()) {
    for (tempus::testing::Distribution dist :
         tempus::testing::AllDistributions()) {
      for (tempus::testing::Arrangement arr :
           tempus::testing::AllArrangements()) {
        // The stream operator under every supported order combination,
        // repeated along the batch axis when --batch lists sizes.
        for (const auto& [lo, ro] : SupportedOrders(op)) {
          for (size_t batch : batches) {
            for (KernelMode kernel : kernels) {
              DifferentialCase c = base;
              c.op = op;
              c.mode = tempus::testing::ExecMode::kSequential;
              c.distribution = dist;
              c.arrangement = arr;
              c.count = count;
              c.seed = seed + cases;  // Distinct but reproducible per case.
              c.left_order = lo;
              c.right_order = ro;
              c.batch_size = batch;
              c.kernel = kernel;
              failures += RunCase(c, verbose);
              ++cases;
            }
          }
        }
        // No-GC mode is order-free; the arrangement is the input order.
        // The degenerate operators have no batch conversion, so the batch
        // axis does not apply here. The sequenced operators have no no-GC
        // twin at all (see HasNoGcMode).
        if (!HasNoGcMode(op)) continue;
        DifferentialCase c = base;
        c.op = op;
        c.mode = tempus::testing::ExecMode::kNoGc;
        c.distribution = dist;
        c.arrangement = arr;
        c.count = count;
        c.seed = seed + cases;
        c.batch_size = 0;
        failures += RunCase(c, verbose);
        ++cases;
      }
    }
  }
  std::printf("%zu differential cases, %d failure(s)\n", cases, failures);
  return failures == 0 ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  DifferentialCase c;
  bool sweep = false;
  bool verbose = false;
  bool have_op = false;
  std::vector<size_t> batches = {0};  // Tuple-at-a-time unless --batch given.
  std::vector<KernelMode> kernels = {KernelMode::kOff};
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    std::string_view v;
    if (arg == "--sweep") {
      sweep = true;
    } else if (arg == "--verbose") {
      verbose = true;
    } else if (ConsumeFlag(arg, "op", &v)) {
      auto op = tempus::testing::PairwiseOpFromName(v);
      if (!op.ok()) {
        std::fprintf(stderr, "%s\n", op.status().ToString().c_str());
        return 2;
      }
      c.op = *op;
      have_op = true;
    } else if (ConsumeFlag(arg, "mode", &v)) {
      auto mode = tempus::testing::ExecModeFromName(v);
      if (!mode.ok()) {
        std::fprintf(stderr, "%s\n", mode.status().ToString().c_str());
        return 2;
      }
      c.mode = *mode;
    } else if (ConsumeFlag(arg, "dist", &v)) {
      auto dist = tempus::testing::DistributionFromName(v);
      if (!dist.ok()) {
        std::fprintf(stderr, "%s\n", dist.status().ToString().c_str());
        return 2;
      }
      c.distribution = *dist;
    } else if (ConsumeFlag(arg, "arrangement", &v)) {
      auto arr = tempus::testing::ArrangementFromName(v);
      if (!arr.ok()) {
        std::fprintf(stderr, "%s\n", arr.status().ToString().c_str());
        return 2;
      }
      c.arrangement = *arr;
    } else if (ConsumeFlag(arg, "left_order", &v)) {
      auto order = tempus::testing::OrderFromToken(v);
      if (!order.ok()) {
        std::fprintf(stderr, "%s\n", order.status().ToString().c_str());
        return 2;
      }
      c.left_order = *order;
    } else if (ConsumeFlag(arg, "right_order", &v)) {
      auto order = tempus::testing::OrderFromToken(v);
      if (!order.ok()) {
        std::fprintf(stderr, "%s\n", order.status().ToString().c_str());
        return 2;
      }
      c.right_order = *order;
    } else if (ConsumeFlag(arg, "count", &v)) {
      c.count = static_cast<size_t>(std::strtoull(
          std::string(v).c_str(), nullptr, 10));
    } else if (ConsumeFlag(arg, "seed", &v)) {
      c.seed = std::strtoull(std::string(v).c_str(), nullptr, 10);
    } else if (ConsumeFlag(arg, "right_seed", &v)) {
      c.right_seed = std::strtoull(std::string(v).c_str(), nullptr, 10);
    } else if (ConsumeFlag(arg, "storage", &v)) {
      auto storage = tempus::testing::StorageModeFromName(v);
      if (!storage.ok()) {
        std::fprintf(stderr, "%s\n", storage.status().ToString().c_str());
        return 2;
      }
      c.storage = *storage;
    } else if (ConsumeFlag(arg, "frames", &v)) {
      c.frame_budget = static_cast<size_t>(std::strtoull(
          std::string(v).c_str(), nullptr, 10));
    } else if (ConsumeFlag(arg, "page", &v)) {
      c.tuples_per_page = static_cast<size_t>(std::strtoull(
          std::string(v).c_str(), nullptr, 10));
    } else if (ConsumeFlag(arg, "batch", &v)) {
      batches = ParseBatchList(v);
      if (batches.empty()) {
        std::fprintf(stderr, "bad --batch list: %s\n", argv[i]);
        return 2;
      }
    } else if (ConsumeFlag(arg, "kernel", &v)) {
      kernels = ParseKernelList(v);
      if (kernels.empty()) {
        std::fprintf(stderr, "bad --kernel list: %s\n", argv[i]);
        return 2;
      }
    } else {
      std::fprintf(stderr, "unknown argument: %s\n", argv[i]);
      return 2;
    }
  }
  if (sweep) return Sweep(c, batches, kernels, verbose);
  if (!have_op) {
    std::fprintf(stderr, "need --op=... or --sweep (see header comment)\n");
    return 2;
  }
  int failures = 0;
  for (size_t batch : batches) {
    for (KernelMode kernel : kernels) {
      c.batch_size = batch;
      c.kernel = kernel;
      failures += RunCase(c, true);
    }
  }
  return failures == 0 ? 0 : 1;
}

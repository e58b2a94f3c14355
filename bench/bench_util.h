#ifndef TEMPUS_BENCH_BENCH_UTIL_H_
#define TEMPUS_BENCH_BENCH_UTIL_H_

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "common/string_util.h"
#include "obs/metrics_json.h"
#include "stream/stream.h"

namespace tempus {
namespace bench {

/// True when TEMPUS_BENCH_SMOKE is set non-empty/non-zero: benches shrink
/// their workloads to a few hundred tuples and run each configuration
/// once, so `cmake --build build --target bench_smoke` finishes in
/// seconds while still exercising every pipeline end to end.
inline bool SmokeMode() {
  const char* env = std::getenv("TEMPUS_BENCH_SMOKE");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

/// Workload size helper: the full count normally, a small cap in smoke
/// mode.
inline size_t Sized(size_t full, size_t smoke_cap = 200) {
  return SmokeMode() && full > smoke_cap ? smoke_cap : full;
}

/// Size-sweep helper: the full sweep normally, only its smallest point in
/// smoke mode.
inline std::vector<size_t> SweepSizes(std::vector<size_t> full) {
  if (SmokeMode() && full.size() > 1) full.resize(1);
  return full;
}

/// Aborts with a message on error — benchmark binaries fail loudly.
inline void CheckOk(const Status& status, const char* what) {
  if (!status.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 status.ToString().c_str());
    std::abort();
  }
}

template <typename T>
T ValueOrDie(Result<T> result, const char* what) {
  if (!result.ok()) {
    std::fprintf(stderr, "FATAL (%s): %s\n", what,
                 result.status().ToString().c_str());
    std::abort();
  }
  return std::move(result).value();
}

struct RunStats {
  size_t output_tuples = 0;
  double seconds = 0.0;
  OperatorMetrics plan_metrics;  // Rolled up over the whole operator tree.
};

/// Opens and drains a stream, timing it and collecting plan-wide metrics.
/// With TEMPUS_BENCH_JSON set, each run additionally prints one
/// machine-readable line ("BENCH_JSON {...}") carrying the rolled-up
/// OperatorMetrics in the stable obs/metrics_json.h schema, tagged with
/// `label` (or the root operator's label when none is given).
inline RunStats RunPipeline(TupleStream* root, const char* label = nullptr) {
  RunStats stats;
  const auto start = std::chrono::steady_clock::now();
  stats.output_tuples = ValueOrDie(DrainCount(root), "pipeline run");
  const auto end = std::chrono::steady_clock::now();
  stats.seconds = std::chrono::duration<double>(end - start).count();
  stats.plan_metrics = CollectPlanMetrics(*root);
  if (std::getenv("TEMPUS_BENCH_JSON") != nullptr) {
    const std::string tag = label != nullptr ? label : root->label();
    std::printf("BENCH_JSON {\"label\":\"%s\",\"seconds\":%.6f,"
                "\"output_tuples\":%zu,\"metrics\":%s}\n",
                JsonEscape(tag).c_str(), stats.seconds, stats.output_tuples,
                MetricsToJson(stats.plan_metrics).c_str());
  }
  return stats;
}

/// Fixed-width ASCII table, matching the layout of the paper's tables.
class TablePrinter {
 public:
  explicit TablePrinter(std::vector<std::string> headers)
      : headers_(std::move(headers)) {}

  void AddRow(std::vector<std::string> cells) {
    rows_.push_back(std::move(cells));
  }

  void Print() const {
    std::vector<size_t> widths(headers_.size());
    for (size_t c = 0; c < headers_.size(); ++c) {
      widths[c] = headers_[c].size();
    }
    for (const auto& row : rows_) {
      for (size_t c = 0; c < row.size() && c < widths.size(); ++c) {
        if (row[c].size() > widths[c]) widths[c] = row[c].size();
      }
    }
    auto print_sep = [&widths] {
      std::string line = "+";
      for (size_t w : widths) line += std::string(w + 2, '-') + "+";
      std::printf("%s\n", line.c_str());
    };
    auto print_row = [&widths](const std::vector<std::string>& row) {
      std::string line = "|";
      for (size_t c = 0; c < widths.size(); ++c) {
        const std::string& cell = c < row.size() ? row[c] : std::string();
        line += " " + cell + std::string(widths[c] - cell.size(), ' ') +
                " |";
      }
      std::printf("%s\n", line.c_str());
    };
    print_sep();
    print_row(headers_);
    print_sep();
    for (const auto& row : rows_) print_row(row);
    print_sep();
  }

 private:
  std::vector<std::string> headers_;
  std::vector<std::vector<std::string>> rows_;
};

inline std::string HumanCount(uint64_t n) {
  if (n >= 10'000'000ULL) return StrFormat("%.1fM", n / 1e6);
  if (n >= 10'000ULL) return StrFormat("%.1fk", n / 1e3);
  return StrFormat("%llu", static_cast<unsigned long long>(n));
}

inline std::string Millis(double seconds) {
  return StrFormat("%.2fms", seconds * 1e3);
}

inline void Banner(const char* title, const char* subtitle) {
  std::printf("\n=== %s ===\n%s\n\n", title, subtitle);
}

}  // namespace bench
}  // namespace tempus

#endif  // TEMPUS_BENCH_BENCH_UTIL_H_

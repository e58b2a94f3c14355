// The tempus benchmark binary. One process runs one workload:
//
//   tempusbench --workload serve|lookup|sweep --seed N --seconds S
//               --trace 0|1 --workdir DIR [--tiny] [--expect CLASS=ROWS:HEX]...
//
// --trace 0 sets the workload up several times (setup_s is the median),
// runs an untraced closed loop for S seconds, and prints the end-to-end
// metrics. --trace 1 sets it up once and times the calls into each module
// for a few operations per class, printing the per-layer metrics, the
// tracing overhead, self time per layer and the baseline findings. Both
// verify every result: each operation's row count against the class's
// first result, and each class's digest against the same query planned
// with OptimizerMode::kHeuristic and threads=1 (and against --expect pins).
// Output is "metric <name> <value> <unit>" lines plus one
// "result correct=<0|1> attempted=<n> failed=<n>" line; run.py turns them
// into the benchmark's JSON object.

#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "harness.h"

namespace tb {
namespace {

using tempus::Status;

/// Settings that scripts/check.sh uses to steer execution paths; any of
/// them would silently change what is measured, so main() clears them
/// before the library reads them.
constexpr const char* kPinnedEnv[] = {
    "TEMPUS_BATCH_SIZE", "TEMPUS_OPTIMIZER", "TEMPUS_VECTOR_KERNELS",
    "TEMPUS_FRAME_BUDGET", "TEMPUS_BENCH_SMOKE"};

// setup_s is the median of the samples one run takes until kSetupBudgetS of
// setting up has passed, and at least kMinSetupSamples of them. A sample is
// the mean of consecutive setups that together last at least kSetupSampleS.
// On a shared host, a core runs up to 1.6x slower for stretches of half a
// second to a few seconds; timed alone, a 40-ms setup reports whichever
// stretch it hit, so the median of single setups jumps between the two.
constexpr size_t kMinSetupSamples = 5;
constexpr double kSetupSampleS = 0.5;
constexpr double kSetupBudgetS = 3.0;
constexpr int kTraceReps = 5;
/// The untimed closed loop before the window runs at least kWarmupCycles
/// cycles and kWarmupS seconds. Sweep's first cycles (the digest pass among
/// them) run slower while the heap grows to its working size, and serve's
/// first second completes about a fifth fewer operations than the seconds
/// after it; a long-running server is past both.
constexpr size_t kWarmupCycles = 2;
constexpr double kWarmupS = 1.0;

struct WorkloadEntry {
  const char* name;
  std::unique_ptr<Workload> (*make)();
  /// The tail percentile reported as tail_ms: the highest of p90 and p99
  /// that keeps at least ten samples beyond it in a 30-second window.
  double tail_quantile;
  /// Operations the timed window completes at least, however long that
  /// takes, so that ten samples lie beyond tail_quantile. Sweep would need
  /// about 40 s for 100 operations; it keeps p90 on the 66-90 operations of
  /// its 30 seconds.
  size_t min_operations;
};

const WorkloadEntry kWorkloads[] = {
    {"serve", MakeServeWorkload, 0.99, 1000},
    {"lookup", MakeLookupWorkload, 0.90, 100},
    {"sweep", MakeSweepWorkload, 0.90, 0},
};

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".";
  std::map<std::string, std::string> expect;  // class -> "rows:hex"
};

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else if (flag == "--expect") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) return false;
      args->expect[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0;
}

double PeakRssMb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

const char* UnitOf(const std::string& metric) {
  if (metric.find("_ms") != std::string::npos) return "ms";
  if (metric.find("bytes") != std::string::npos) return "bytes";
  if (metric.find("ratio") != std::string::npos ||
      metric.find("selectivity") != std::string::npos) {
    return "ratio";
  }
  return "count";
}

/// Verification shared by both modes: the measured path's digest per class
/// (taken before measuring; it doubles as warm-up), then the heuristic
/// single-thread cross-check and the pins, after measuring.
class Verifier {
 public:
  Verifier(Workload* workload, const Args& args)
      : workload_(workload), args_(args) {}

  Status Warm() {
    const size_t n = workload_->Classes().size();
    for (size_t cls = 0; cls < n; ++cls) {
      TEMPUS_ASSIGN_OR_RETURN(Digest d, workload_->MeasuredDigest(cls));
      measured_.push_back(d);
    }
    return Status::Ok();
  }

  size_t ExpectedRows(size_t cls) const { return measured_[cls].rows; }

  /// Returns the classes whose results did not verify.
  std::vector<bool> CrossCheck() {
    const std::vector<std::string> classes = workload_->Classes();
    std::vector<bool> bad(classes.size(), false);
    for (size_t cls = 0; cls < classes.size(); ++cls) {
      const Digest& m = measured_[cls];
      tempus::Result<Digest> ref = workload_->ReferenceDigest(cls);
      const bool ref_ok = ref.ok() && *ref == m;
      std::string pin = "unpinned";
      auto it = args_.expect.find(classes[cls]);
      if (it != args_.expect.end()) {
        pin = it->second == std::to_string(m.rows) + ":" + m.Hex()
                  ? "match"
                  : "MISMATCH (pinned " + it->second + ")";
      }
      bad[cls] = !ref_ok || pin.rfind("MISMATCH", 0) == 0;
      std::printf("digest %s rows=%zu sum=%s reference=%s pinned=%s\n",
                  classes[cls].c_str(), m.rows, m.Hex().c_str(),
                  ref_ok ? "match"
                  : ref.ok()
                      ? ("MISMATCH (" + std::to_string(ref->rows) + ":" +
                         ref->Hex() + ")")
                            .c_str()
                      : ref.status().ToString().c_str(),
                  pin.c_str());
    }
    return bad;
  }

 private:
  Workload* workload_;
  const Args& args_;
  std::vector<Digest> measured_;
};

struct Sample {
  size_t cls = 0;
  double ms = 0.0;
  bool ok = false;
  Clock::time_point end;
};

/// Runs the closed loop for at least `seconds` and `min_cycles` cycles:
/// every caller repeats whole cycles of all classes, starting at its own
/// point of the cycle, so every run has the same class mix. Returns each
/// caller's samples.
std::vector<std::vector<Sample>> RunLoop(Workload* workload,
                                         const Verifier& verifier,
                                         double seconds, size_t min_cycles) {
  const std::vector<std::string> classes = workload->Classes();
  const size_t n = classes.size();
  const size_t callers = workload->Callers();
  std::vector<std::vector<Sample>> samples(callers);
  const auto deadline =
      Clock::now() + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(seconds));
  std::vector<std::thread> threads;
  for (size_t c = 0; c < callers; ++c) {
    threads.emplace_back([&, c] {
      const size_t offset = c * n / callers;
      size_t cycles = 0;
      do {
        for (size_t i = 0; i < n; ++i) {
          Sample sample;
          sample.cls = (i + offset) % n;
          const auto op_start = Clock::now();
          tempus::Result<size_t> rows = workload->RunOnce(sample.cls, c);
          sample.end = Clock::now();
          sample.ms = MsBetween(op_start, sample.end);
          sample.ok = rows.ok() && *rows == verifier.ExpectedRows(sample.cls);
          if (!sample.ok) {
            std::fprintf(stderr, "operation %s failed: %s\n",
                         classes[sample.cls].c_str(),
                         rows.ok() ? ("rows " + std::to_string(*rows)).c_str()
                                   : rows.status().ToString().c_str());
          }
          samples[c].push_back(sample);
        }
      } while (++cycles < min_cycles || Clock::now() < deadline);
    });
  }
  for (std::thread& t : threads) t.join();
  return samples;
}

int RunTimed(const WorkloadEntry& entry, Workload* workload,
             const Config& config, const Args& args) {
  std::vector<double> setup_s;  // One mean per sample.
  double setup_total_s = 0.0;
  size_t setups = 0;
  while (setup_s.size() < kMinSetupSamples || setup_total_s < kSetupBudgetS) {
    double sample_s = 0.0;
    size_t count = 0;
    while (sample_s < kSetupSampleS) {
      // Releasing the previous setup (server shutdown, freeing relations)
      // is not part of setting up.
      workload->Teardown();
      const auto start = Clock::now();
      const Status status = workload->Setup(config);
      sample_s += MsBetween(start, Clock::now()) / 1e3;
      ++count;
      if (!status.ok()) {
        std::fprintf(stderr, "setup failed: %s\n", status.ToString().c_str());
        return 1;
      }
    }
    setup_s.push_back(sample_s / static_cast<double>(count));
    setup_total_s += sample_s;
    setups += count;
  }
  Verifier verifier(workload, args);
  if (Status s = verifier.Warm(); !s.ok()) {
    std::fprintf(stderr, "warm-up failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::vector<std::vector<Sample>> warmup =
      RunLoop(workload, verifier, kWarmupS, kWarmupCycles);

  const std::vector<std::string> classes = workload->Classes();
  const size_t callers = workload->Callers();
  const size_t per_cycle = classes.size() * callers;
  const size_t min_cycles =
      std::max<size_t>(1, (entry.min_operations + per_cycle - 1) / per_cycle);
  const auto start = Clock::now();
  const std::vector<std::vector<Sample>> samples =
      RunLoop(workload, verifier, args.seconds, min_cycles);

  auto end = start;
  std::vector<Sample> all;
  for (const auto& per_caller : samples) {
    for (const Sample& s : per_caller) {
      all.push_back(s);
      if (s.end > end) end = s.end;
    }
  }
  const std::vector<bool> bad = verifier.CrossCheck();
  size_t failed = 0;
  for (const auto& per_caller : warmup) {
    for (const Sample& s : per_caller) failed += s.ok ? 0 : 1;
  }
  std::vector<double> ok_ms;
  std::vector<std::vector<double>> class_ms(classes.size());
  for (const Sample& s : all) {
    if (!s.ok || bad[s.cls]) {
      ++failed;
      continue;
    }
    ok_ms.push_back(s.ms);
    class_ms[s.cls].push_back(s.ms);
  }
  const uint64_t extra = workload->ExtraFailures();
  failed = std::min(all.size(), failed + static_cast<size_t>(extra));
  const double elapsed_s = MsBetween(start, end) / 1e3;

  const size_t beyond = static_cast<size_t>(
      static_cast<double>(ok_ms.size()) * (1.0 - entry.tail_quantile));
  std::printf("env workload=%s seed=%llu window_s=%.3f operations=%zu "
              "cycles_per_caller=%zu\n",
              entry.name, static_cast<unsigned long long>(config.seed),
              elapsed_s, all.size(), all.size() / per_cycle);
  // Operations completed in each whole second of the window: shows whether
  // the machine's speed changed during the run.
  std::vector<size_t> per_second(static_cast<size_t>(elapsed_s), 0);
  for (const Sample& s : all) {
    const size_t second = static_cast<size_t>(MsBetween(start, s.end) / 1e3);
    if (second < per_second.size()) ++per_second[second];
  }
  std::printf("operations per second:");
  for (size_t n : per_second) std::printf(" %zu", n);
  std::printf("\n");
  std::printf("tail_ms is p%.0f of %zu samples, %zu beyond it\n",
              entry.tail_quantile * 100, ok_ms.size(), beyond);
  std::printf("setup_s is the median of %zu samples of %zu setups:",
              setup_s.size(), setups);
  for (double s : setup_s) std::printf(" %.4f", s);
  std::printf("\n");
  PrintMetric("setup_s", Median(setup_s), "s");
  PrintMetric("qps", static_cast<double>(ok_ms.size()) / elapsed_s, "1/s");
  PrintMetric("p50_ms", Median(ok_ms), "ms");
  PrintMetric("tail_ms", Percentile(ok_ms, entry.tail_quantile), "ms");
  PrintMetric("fail_ratio",
              static_cast<double>(failed) / static_cast<double>(all.size()),
              "ratio");
  PrintMetric("peak_rss_mb", PeakRssMb(), "MB");
  for (size_t cls = 0; cls < classes.size(); ++cls) {
    PrintMetric(classes[cls] + ".p50_ms", Median(class_ms[cls]), "ms");
    PrintMetric(classes[cls] + ".count",
                static_cast<double>(class_ms[cls].size()), "count");
  }
  workload->Teardown();
  std::printf("result correct=%d attempted=%zu failed=%zu\n", failed == 0,
              all.size(), failed);
  return 0;
}

int RunTraced(const WorkloadEntry& entry, Workload* workload,
              const Config& config, const Args& args) {
  const auto setup_start = Clock::now();
  if (Status s = workload->Setup(config); !s.ok()) {
    std::fprintf(stderr, "setup failed: %s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("setup took %.3f s\n",
              MsBetween(setup_start, Clock::now()) / 1e3);
  Verifier verifier(workload, args);
  if (Status s = verifier.Warm(); !s.ok()) {
    std::fprintf(stderr, "warm-up failed: %s\n", s.ToString().c_str());
    return 1;
  }

  const std::vector<std::string> classes = workload->Classes();
  const int reps = config.tiny ? 2 : kTraceReps;
  size_t attempted = 0, failed = 0;
  std::vector<double> untraced_p50(classes.size());
  Tracer tracer;
  LayerSamples layers;
  uint64_t query = 1;
  // Untraced and traced operations alternate, so both see the same heap
  // and cache state and their difference is the tracing overhead.
  for (size_t cls = 0; cls < classes.size(); ++cls) {
    std::vector<double> untraced_ms;
    for (int r = 0; r < reps; ++r) {
      const auto start = Clock::now();
      tempus::Result<size_t> rows = workload->RunOnce(cls, 0);
      untraced_ms.push_back(MsBetween(start, Clock::now()));
      ++attempted;
      if (!rows.ok() || *rows != verifier.ExpectedRows(cls)) ++failed;

      ++attempted;
      const Status s = workload->TraceOnce(cls, &tracer, query++, &layers);
      if (!s.ok()) {
        std::fprintf(stderr, "traced %s failed: %s\n",
                     classes[cls].c_str(), s.ToString().c_str());
        ++failed;
      }
    }
    untraced_p50[cls] = Median(untraced_ms);
  }
  if (Status s = workload->TraceWorkload(&tracer, &layers); !s.ok()) {
    std::fprintf(stderr, "trace failed: %s\n", s.ToString().c_str());
    return 1;
  }
  const std::vector<bool> bad = verifier.CrossCheck();
  for (size_t cls = 0; cls < classes.size(); ++cls) {
    if (bad[cls]) failed += 2 * static_cast<size_t>(reps);
  }
  failed = std::min(attempted, failed + static_cast<size_t>(
                                            workload->ExtraFailures()));

  for (const auto& [name, values] : layers.all()) {
    PrintMetric(name, Median(values), UnitOf(name));
  }
  for (size_t cls = 0; cls < classes.size(); ++cls) {
    const std::string& name = classes[cls];
    const double traced = layers.MedianOf("trace.traced_ms." + name);
    std::printf("overhead %s traced %.3f ms - untraced p50 %.3f ms = %.3f ms\n",
                name.c_str(), traced, untraced_p50[cls],
                traced - untraced_p50[cls]);
  }
  double total_self = 0.0;
  const std::map<std::string, double> self = tracer.SelfMsByName();
  for (const auto& [name, ms] : self) total_self += ms;
  for (const auto& [name, ms] : self) {
    std::printf("self_ms %s %.3f (%.1f%%)\n", name.c_str(), ms,
                total_self > 0 ? 100.0 * ms / total_self : 0.0);
  }
  workload->PrintFindings(layers);
  const std::string path =
      config.workdir + "/trace_" + entry.name + ".json";
  if (Status s = tracer.WriteJson(path); !s.ok()) {
    std::fprintf(stderr, "%s\n", s.ToString().c_str());
    return 1;
  }
  std::printf("spans %zu written to %s\n", tracer.spans().size(),
              path.c_str());
  workload->Teardown();
  std::printf("result correct=%d attempted=%zu failed=%zu\n", failed == 0,
              attempted, failed);
  return 0;
}

}  // namespace
}  // namespace tb

int main(int argc, char** argv) {
  tb::Args args;
  if (!tb::ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: tempusbench --workload serve|lookup|sweep --seed N "
                 "--seconds S --trace 0|1 --workdir DIR [--tiny] "
                 "[--expect CLASS=ROWS:HEX]...\n");
    return 2;
  }
  for (const char* name : tb::kPinnedEnv) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "cleared %s\n", name);
      unsetenv(name);
    }
  }
  const tb::WorkloadEntry* entry = nullptr;
  for (const tb::WorkloadEntry& e : tb::kWorkloads) {
    if (args.workload == e.name) entry = &e;
  }
  if (entry == nullptr) {
    std::fprintf(stderr, "unknown workload: %s\n", args.workload.c_str());
    return 2;
  }
  std::printf("env build_type=%s compiler=%s nproc=%u\n",
              TEMPUSBENCH_BUILD_TYPE, TEMPUSBENCH_COMPILER,
              std::thread::hardware_concurrency());
  const tb::Config config{args.seed, args.tiny, args.workdir};
  std::unique_ptr<tb::Workload> workload = entry->make();
  return args.trace ? tb::RunTraced(*entry, workload.get(), config, args)
                    : tb::RunTimed(*entry, workload.get(), config, args);
}

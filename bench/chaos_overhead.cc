// Measures the cost of DISABLED fault points on the Table 1 contain-join
// hot path — the price every production run pays for the chaos harness
// (src/common/fault.h, docs/TESTING.md).
//
// A disarmed TEMPUS_FAULT_POINT is one relaxed atomic load and a branch.
// To resolve that against timer noise, a passthrough "hammer" operator
// evaluates the macro kHammerChecks times per tuple on top of the plain
// join drain; the per-check cost is the drain-time delta divided by the
// number of extra checks. The verdict compares ONE check (what a real
// operator adds to each Next()) against the baseline per-tuple cost of
// the contain-join: the harness claim is < 1%.

#include <algorithm>
#include <memory>

#include "bench_util.h"
#include "common/fault.h"
#include "datagen/interval_gen.h"
#include "join/contain_join.h"

namespace tempus {
namespace bench {
namespace {

constexpr int kHammerChecks = 16;

/// Passthrough stream that pays `kHammerChecks` disarmed fault-point
/// evaluations per tuple, amplifying the per-check cost above timer
/// noise. The point name is unarmed, so every evaluation takes the
/// fast path.
class FaultHammerStream : public TupleStream {
 public:
  explicit FaultHammerStream(std::unique_ptr<TupleStream> child)
      : child_(std::move(child)) {}

  const Schema& schema() const override { return child_->schema(); }
  Status OpenImpl() override { return child_->Open(); }
  Result<bool> NextImpl(Tuple* out) override {
    for (int i = 0; i < kHammerChecks; ++i) {
      TEMPUS_FAULT_POINT("bench.hammer");
    }
    return child_->Next(out);
  }
  std::vector<const TupleStream*> children() const override {
    return {child_.get()};
  }

 private:
  std::unique_ptr<TupleStream> child_;
};

std::unique_ptr<TupleStream> MakeJoin(const TemporalRelation& x,
                                      const TemporalRelation& y,
                                      bool hammered) {
  std::unique_ptr<TupleStream> join = ValueOrDie(
      MakeContainJoin(VectorStream::Scan(x), VectorStream::Scan(y)),
      "contain join");
  if (hammered) {
    join = std::make_unique<FaultHammerStream>(std::move(join));
  }
  return join;
}

/// Minimum drain time over `trials` re-opens of the same pipeline.
double MinSeconds(TupleStream* root, const char* label, int trials) {
  double best = 0.0;
  for (int t = 0; t < trials; ++t) {
    const RunStats stats = RunPipeline(root, label);
    if (t == 0 || stats.seconds < best) best = stats.seconds;
  }
  return best;
}

void Run() {
  Banner("Chaos-harness overhead — disarmed fault points",
         "Table 1 contain-join (ValidFrom^, ValidFrom^) drained plain vs "
         "through a\npassthrough paying 16 extra disarmed "
         "TEMPUS_FAULT_POINT checks per tuple.");

  if (FaultInjector::armed()) {
    std::fprintf(stderr, "FATAL: injector armed; measurements void\n");
    std::abort();
  }

  IntervalWorkloadConfig config;
  config.count = Sized(10'000);
  config.mean_interarrival = 4.0;
  config.mean_duration = 64.0;
  config.seed = 1;
  TemporalRelation x =
      ValueOrDie(GenerateIntervalRelation("X", config), "gen X");
  config.mean_duration = 8.0;
  config.seed = 2;
  TemporalRelation y =
      ValueOrDie(GenerateIntervalRelation("Y", config), "gen Y");
  const SortSpec from_asc = ValueOrDie(
      kByValidFromAsc.ToSortSpec(x.schema()), "sort spec");
  x.SortBy(from_asc);
  y.SortBy(from_asc);

  const int trials = SmokeMode() ? 1 : 7;
  std::unique_ptr<TupleStream> plain = MakeJoin(x, y, /*hammered=*/false);
  std::unique_ptr<TupleStream> hammered = MakeJoin(x, y, /*hammered=*/true);
  // Warm both pipelines once, then interleave-measure.
  RunPipeline(plain.get(), "warmup");
  RunPipeline(hammered.get(), "warmup");
  const double base = MinSeconds(plain.get(), "table1-hot-path", trials);
  const double spiked =
      MinSeconds(hammered.get(), "fault-hammer-x16", trials);

  const size_t tuples_driven = x.size() + y.size();
  // The hammer adds kHammerChecks macro evaluations plus its own Next()
  // wrapper (one more disarmed check) per driven tuple.
  const double extra_checks =
      static_cast<double>(tuples_driven) * (kHammerChecks + 1);
  const double per_check_ns =
      std::max(0.0, (spiked - base)) / extra_checks * 1e9;
  const double base_per_tuple_ns =
      base / static_cast<double>(tuples_driven) * 1e9;
  const double pct =
      base_per_tuple_ns > 0.0 ? per_check_ns / base_per_tuple_ns * 100.0
                              : 0.0;

  TablePrinter table({"configuration", "min drain", "per tuple"});
  table.AddRow({"contain-join (plain)", Millis(base),
                StrFormat("%.1fns", base_per_tuple_ns)});
  table.AddRow({"contain-join + 17 disarmed checks/tuple", Millis(spiked),
                StrFormat("%.1fns",
                          spiked / static_cast<double>(tuples_driven) * 1e9)});
  table.Print();

  std::printf("\nper disarmed check: %.3fns  ->  one check per Next() is "
              "%.3f%% of the hot path\n",
              per_check_ns, pct);
  if (std::getenv("TEMPUS_BENCH_JSON") != nullptr) {
    std::printf("BENCH_JSON {\"label\":\"chaos-overhead\","
                "\"per_check_ns\":%.4f,\"hot_path_pct\":%.4f}\n",
                per_check_ns, pct);
  }
  if (SmokeMode()) {
    std::printf("smoke mode: workload too small for a stable verdict\n");
    return;
  }
  std::printf("verdict: %s (claim: < 1%%)\n", pct < 1.0 ? "PASS" : "FAIL");
}

}  // namespace
}  // namespace bench
}  // namespace tempus

int main() {
  tempus::bench::Run();
  return 0;
}

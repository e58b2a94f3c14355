// Ablation A1 (DESIGN.md): the Contain-join's read phase.
//
// The paper's Section 4.2.1 interleaves reads using the estimated
// inter-arrival rates 1/lambda_x and 1/lambda_y, reading "a tuple from an
// input stream which allows more state tuples to be discarded". We compare
// that heuristic against the canonical timestamp-order sweep on workloads
// with increasingly skewed arrival rates. Both are exact; they differ in
// retained state and bookkeeping comparisons.

#include "bench_util.h"
#include "datagen/interval_gen.h"
#include "join/contain_join.h"

namespace tempus {
namespace bench {
namespace {

struct PolicyRun {
  size_t peak_ws = 0;
  uint64_t comparisons = 0;
  double seconds = 0;
  size_t output = 0;
};

PolicyRun RunPolicy(const TemporalRelation& xs, const TemporalRelation& ys,
                    ContainJoinReadPolicy policy) {
  ContainJoinOptions options;
  options.read_policy = policy;
  std::unique_ptr<TupleStream> join = ValueOrDie(
      MakeContainJoin(VectorStream::Scan(xs),
                      VectorStream::Scan(ys), options),
      "contain join");
  const RunStats stats = RunPipeline(join.get());
  return {join->metrics().peak_workspace_tuples,
          join->metrics().comparisons, stats.seconds, stats.output_tuples};
}

void Run() {
  Banner("ABLATION — Contain-join read policy (Section 4.2.1)",
         "Timestamp-order sweep vs the paper's 1/lambda disposal "
         "heuristic,\nunder skewed arrival rates (both policies are "
         "exact).");

  TablePrinter table({"Y 1/lambda", "sweep ws", "sweep cmps", "sweep time",
                      "lambda ws", "lambda cmps", "lambda time", "out"});
  for (double y_gap : {1.0, 2.0, 8.0, 32.0}) {
    IntervalWorkloadConfig config;
    config.count = Sized(6000);
    config.seed = 41;
    config.mean_interarrival = 4.0;
    config.mean_duration = 96.0;
    TemporalRelation x =
        ValueOrDie(GenerateIntervalRelation("X", config), "gen X");
    config.seed = 42;
    config.mean_interarrival = y_gap;
    config.mean_duration = 8.0;
    TemporalRelation y =
        ValueOrDie(GenerateIntervalRelation("Y", config), "gen Y");
    const SortSpec spec =
        ValueOrDie(kByValidFromAsc.ToSortSpec(x.schema()), "spec");
    x.SortBy(spec);
    y.SortBy(spec);

    const PolicyRun sweep =
        RunPolicy(x, y, ContainJoinReadPolicy::kTimestampSweep);
    const PolicyRun lambda =
        RunPolicy(x, y, ContainJoinReadPolicy::kLambdaHeuristic);
    if (sweep.output != lambda.output) {
      std::printf("RESULT MISMATCH: %zu vs %zu\n", sweep.output,
                  lambda.output);
    }
    table.AddRow({StrFormat("%.0f", y_gap), StrFormat("%zu", sweep.peak_ws),
                  HumanCount(sweep.comparisons), Millis(sweep.seconds),
                  StrFormat("%zu", lambda.peak_ws),
                  HumanCount(lambda.comparisons), Millis(lambda.seconds),
                  StrFormat("%zu", sweep.output)});
  }
  table.Print();
  std::printf(
      "\nReading: the heuristic pays extra scoring comparisons per read; "
      "its state\ncan exceed the sweep's because reads may run ahead on "
      "one stream.\n");
}

}  // namespace
}  // namespace bench
}  // namespace tempus

int main() {
  tempus::bench::Run();
  return 0;
}

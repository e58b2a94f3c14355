// Reproduces TABLE 3: Contained-semijoin(X,X) and Contain-semijoin(X,X)
// (Section 4.2.3). With the right ordering each runs in a single scan with
// ONE state tuple plus the input buffer; with the mirrored ordering the
// Contain variant degrades to the overlap-set state (characterization (b)).

#include "bench_util.h"
#include "datagen/interval_gen.h"
#include "join/self_semijoin.h"

namespace tempus {
namespace bench {
namespace {

std::string Cell(const TemporalRelation& x, TemporalSortOrder order,
                 bool contained) {
  const TemporalRelation xs =
      x.SortedBy(ValueOrDie(order.ToSortSpec(x.schema()), "spec"));
  SelfSemijoinOptions options;
  options.order = order;
  Result<std::unique_ptr<TupleStream>> semi =
      contained ? MakeSelfContainedSemijoin(VectorStream::Scan(xs), options)
                : MakeSelfContainSemijoin(VectorStream::Scan(xs), options);
  if (!semi.ok()) return "-";
  const RunStats stats = RunPipeline(semi->get());
  const size_t ws = (*semi)->metrics().peak_workspace_tuples;
  return StrFormat("%s ws=%zu  (%s, %zu out)",
                   ws <= 1 ? "(a)" : "(b)", ws,
                   Millis(stats.seconds).c_str(), stats.output_tuples);
}

void RunOn(const char* label, const TemporalRelation& x) {
  const RelationStats stats = ValueOrDie(x.ComputeStats(), "stats");
  std::printf("\n-- workload: %s (n=%zu, max concurrency %zu) --\n", label,
              x.size(), stats.max_concurrency);
  TablePrinter table(
      {"Sort order", "Contained-semijoin(X,X)", "Contain-semijoin(X,X)"});
  for (const TemporalSortOrder& order : AllTemporalSortOrders()) {
    table.AddRow({order.ToString(), Cell(x, order, true),
                  Cell(x, order, false)});
  }
  table.Print();
}

void Run() {
  Banner("TABLE 3 — self containment semijoins",
         "(a) = single state tuple + buffer; (b) = overlapping-tuple "
         "state;\n'-' = no stream algorithm for that ordering.");

  // Deep nesting: the adversarial case for the (b) cells.
  const TemporalRelation nested = ValueOrDie(
      GenerateNestedIntervals("Nested", /*chain_count=*/Sized(1000, 50),
                              /*depth=*/10,
                              /*seed=*/3),
      "gen nested");
  RunOn("nested chains, depth 10", nested);

  IntervalWorkloadConfig config;
  config.count = Sized(20'000);
  config.mean_interarrival = 3.0;
  config.mean_duration = 20.0;
  config.seed = 4;
  const TemporalRelation random =
      ValueOrDie(GenerateIntervalRelation("Random", config), "gen random");
  RunOn("random exponential durations", random);

  std::printf(
      "\nReading: with the right order both operators are single-scan, "
      "single-state\n(the Section 5 Superstar plan relies on exactly "
      "this); the wrong order forces\nthe Contain variant to hold every "
      "overlapping container.\n");
}

}  // namespace
}  // namespace bench
}  // namespace tempus

int main() {
  tempus::bench::Run();
  return 0;
}

// Reproduces TABLE 1 of Leung & Muntz: the effect of the eight sort-order
// combinations on the local workspace of Contain-join(X,Y),
// Contain-semijoin(X,Y), and Contained-semijoin(X,Y).
//
// Each cell runs the real stream operator on a synthetic workload and
// reports the MEASURED peak workspace (state tuples, excluding the two
// input buffers, matching the paper's accounting). For orderings the paper
// marks "-" (no garbage-collection criteria), the join column runs the
// one-pass no-GC stream join so the unbounded growth is visible, and the
// semijoin columns report that no stream algorithm exists.
//
// Paper-claim key:  (a) X spanning y.TS (+ transient Y)   (b) X spanning
// y.TE + Y inside current X   (c) bounded by containers spanning the sweep
// point   (d) buffers only   "-" unbounded.

#include "bench_util.h"
#include "datagen/interval_gen.h"
#include "join/contain_join.h"
#include "join/containment_semijoin.h"
#include "join/no_gc_join.h"
#include "join/nested_loop.h"

namespace tempus {
namespace bench {
namespace {

struct RowSpec {
  TemporalSortOrder x_order;
  TemporalSortOrder y_order;
  const char* join_claim;
  const char* contain_semi_claim;
  const char* contained_semi_claim;
};

std::string JoinCell(const TemporalRelation& xs, const TemporalRelation& ys,
                     TemporalSortOrder xo, TemporalSortOrder yo) {
  ContainJoinOptions options;
  options.left_order = xo;
  options.right_order = yo;
  Result<std::unique_ptr<TupleStream>> join = MakeContainJoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  if (join.ok()) {
    const RunStats stats = RunPipeline(join->get());
    return StrFormat("ws=%zu  (%s, %zu out)",
                     (*join)->metrics().peak_workspace_tuples,
                     Millis(stats.seconds).c_str(), stats.output_tuples);
  }
  // "-" cell: run the degenerate one-pass join without garbage collection.
  PairPredicate pred = ValueOrDie(
      MakeIntervalPairPredicate(xs.schema(), ys.schema(),
                                AllenMask::Single(AllenRelation::kContains)),
      "predicate");
  std::unique_ptr<NoGcStreamJoin> nogc = ValueOrDie(
      NoGcStreamJoin::Create(VectorStream::Scan(xs), VectorStream::Scan(ys),
                             std::move(pred)),
      "no-gc join");
  RunPipeline(nogc.get());
  return StrFormat("ws=%zu  UNBOUNDED (no GC)",
                   nogc->metrics().peak_workspace_tuples);
}

std::string SemiCell(const TemporalRelation& xs, const TemporalRelation& ys,
                     TemporalSortOrder xo, TemporalSortOrder yo,
                     bool contained) {
  TemporalSemijoinOptions options;
  options.left_order = xo;
  options.right_order = yo;
  Result<std::unique_ptr<TupleStream>> semi =
      contained ? MakeContainedSemijoin(VectorStream::Scan(xs),
                                        VectorStream::Scan(ys), options)
                : MakeContainSemijoin(VectorStream::Scan(xs),
                                      VectorStream::Scan(ys), options);
  if (!semi.ok()) {
    return "-";
  }
  const RunStats stats = RunPipeline(semi->get());
  return StrFormat("ws=%zu  (%s, %zu out)",
                   (*semi)->metrics().peak_workspace_tuples,
                   Millis(stats.seconds).c_str(), stats.output_tuples);
}

void Run() {
  Banner("TABLE 1 — Contain-join / Contain-semijoin / Contained-semijoin",
         "Measured peak workspace (state tuples) per sort-order "
         "combination;\npaper claims in brackets. X: 10k long-lived "
         "containers; Y: 10k short-lived containees.");

  IntervalWorkloadConfig config;
  config.count = Sized(10'000);
  config.mean_interarrival = 4.0;
  config.mean_duration = 64.0;
  config.seed = 1;
  const TemporalRelation x =
      ValueOrDie(GenerateIntervalRelation("X", config), "gen X");
  config.mean_duration = 8.0;
  config.seed = 2;
  const TemporalRelation y =
      ValueOrDie(GenerateIntervalRelation("Y", config), "gen Y");

  const RelationStats xstats = ValueOrDie(x.ComputeStats(), "stats");
  const RelationStats ystats = ValueOrDie(y.ComputeStats(), "stats");
  std::printf("X: n=%zu, mean duration %.1f, max concurrency %zu\n",
              xstats.tuple_count, xstats.mean_duration,
              xstats.max_concurrency);
  std::printf("Y: n=%zu, mean duration %.1f, max concurrency %zu\n\n",
              ystats.tuple_count, ystats.mean_duration,
              ystats.max_concurrency);

  const RowSpec rows[] = {
      {kByValidFromAsc, kByValidFromAsc, "(a)", "(c)", "(c)"},
      {kByValidFromDesc, kByValidFromDesc, "-", "-", "-"},
      {kByValidFromAsc, kByValidToAsc, "(b)", "(d)", "-"},
      {kByValidFromDesc, kByValidToDesc, "-", "-", "(d)"},
      {kByValidToAsc, kByValidFromAsc, "-", "-", "(d)"},
      {kByValidToDesc, kByValidFromDesc, "(b)", "(d)", "-"},
      {kByValidToAsc, kByValidToAsc, "-", "-", "-"},
      {kByValidToDesc, kByValidToDesc, "(a)", "(c)", "(c)"},
  };

  TablePrinter table({"X order", "Y order", "Contain-join(X,Y)",
                      "Contain-semijoin(X,Y)", "Contained-semijoin(X,Y)"});
  for (const RowSpec& row : rows) {
    const TemporalRelation xs = x.SortedBy(
        ValueOrDie(row.x_order.ToSortSpec(x.schema()), "spec"));
    const TemporalRelation ys = y.SortedBy(
        ValueOrDie(row.y_order.ToSortSpec(y.schema()), "spec"));
    table.AddRow({row.x_order.ToString(), row.y_order.ToString(),
                  std::string(row.join_claim) + "  " +
                      JoinCell(xs, ys, row.x_order, row.y_order),
                  std::string(row.contain_semi_claim) + "  " +
                      SemiCell(xs, ys, row.x_order, row.y_order, false),
                  std::string(row.contained_semi_claim) + "  " +
                      SemiCell(xs, ys, row.x_order, row.y_order, true)});
  }
  table.Print();
  std::printf(
      "\nReading: bounded cells stay near the max-concurrency bound "
      "(%zu/%zu);\n'-' cells degenerate to state = |X|+|Y| = %zu.\n",
      xstats.max_concurrency, ystats.max_concurrency, x.size() + y.size());
}

}  // namespace
}  // namespace bench
}  // namespace tempus

int main() {
  tempus::bench::Run();
  return 0;
}

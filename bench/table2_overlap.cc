// Reproduces TABLE 2: sort-order effects on the Overlap-join and
// Overlap-semijoin (TQuel `overlap`, Section 4.2.4). The paper lists only
// (ValidFrom^, ValidFrom^) — equivalently its mirror (ValidTo v,
// ValidTo v) — as appropriate for stream processing; the "(a)" state is
// the tuples of both relations spanning the sweep point and the semijoin
// runs on the two input buffers alone ("(b)").

#include "bench_util.h"
#include "datagen/interval_gen.h"
#include "join/allen_sweep_join.h"
#include "join/no_gc_join.h"
#include "join/nested_loop.h"
#include "join/overlap_semijoin.h"

namespace tempus {
namespace bench {
namespace {

std::string JoinCell(const TemporalRelation& xs, const TemporalRelation& ys,
                     TemporalSortOrder order) {
  AllenSweepJoinOptions options;
  options.mask = AllenMask::Intersecting();
  options.left_order = order;
  options.right_order = order;
  Result<std::unique_ptr<TupleStream>> join = MakeAllenSweepJoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  if (join.ok()) {
    const RunStats stats = RunPipeline(join->get());
    return StrFormat("(a)  ws=%zu  (%s, %zu out)",
                     (*join)->metrics().peak_workspace_tuples,
                     Millis(stats.seconds).c_str(), stats.output_tuples);
  }
  PairPredicate pred = ValueOrDie(
      MakeIntervalPairPredicate(xs.schema(), ys.schema(),
                                AllenMask::Intersecting()),
      "predicate");
  std::unique_ptr<NoGcStreamJoin> nogc = ValueOrDie(
      NoGcStreamJoin::Create(VectorStream::Scan(xs), VectorStream::Scan(ys),
                             std::move(pred)),
      "no-gc join");
  RunPipeline(nogc.get());
  return StrFormat("-    ws=%zu  UNBOUNDED (no GC)",
                   nogc->metrics().peak_workspace_tuples);
}

std::string SemiCell(const TemporalRelation& xs, const TemporalRelation& ys,
                     TemporalSortOrder order) {
  OverlapSemijoinOptions options;
  options.order = order;
  Result<std::unique_ptr<TupleStream>> semi = MakeOverlapSemijoin(
      VectorStream::Scan(xs), VectorStream::Scan(ys), options);
  if (!semi.ok()) return "-";
  const RunStats stats = RunPipeline(semi->get());
  return StrFormat("(b)  ws=%zu (buffers only)  (%s, %zu out)",
                   (*semi)->metrics().peak_workspace_tuples,
                   Millis(stats.seconds).c_str(), stats.output_tuples);
}

void Run() {
  Banner("TABLE 2 — Overlap-join and Overlap-semijoin",
         "Measured peak workspace per sort order. Only (ValidFrom^, "
         "ValidFrom^)\nand its mirror admit garbage collection.");

  IntervalWorkloadConfig config;
  config.count = Sized(10'000);
  config.mean_interarrival = 4.0;
  config.mean_duration = 24.0;
  config.seed = 11;
  const TemporalRelation x =
      ValueOrDie(GenerateIntervalRelation("X", config), "gen X");
  config.seed = 12;
  const TemporalRelation y =
      ValueOrDie(GenerateIntervalRelation("Y", config), "gen Y");
  const RelationStats xstats = ValueOrDie(x.ComputeStats(), "stats");
  const RelationStats ystats = ValueOrDie(y.ComputeStats(), "stats");
  std::printf("max concurrency: X=%zu, Y=%zu\n\n", xstats.max_concurrency,
              ystats.max_concurrency);

  TablePrinter table({"X order", "Y order", "Overlap-join(X,Y)",
                      "Overlap-semijoin(X,Y)"});
  for (const TemporalSortOrder& order : AllTemporalSortOrders()) {
    const TemporalRelation xs =
        x.SortedBy(ValueOrDie(order.ToSortSpec(x.schema()), "spec"));
    const TemporalRelation ys =
        y.SortedBy(ValueOrDie(order.ToSortSpec(y.schema()), "spec"));
    table.AddRow({order.ToString(), order.ToString(),
                  JoinCell(xs, ys, order), SemiCell(xs, ys, order)});
  }
  table.Print();
}

}  // namespace
}  // namespace bench
}  // namespace tempus

int main() {
  tempus::bench::Run();
  return 0;
}

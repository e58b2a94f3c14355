// Section 4.1 / 4.2 tradeoff study: "the optimal sort ordering for a
// query may depend on the statistics of data instances."
//
// For the Contain-join the two appropriate orderings keep different state:
//   (ValidFrom^, ValidFrom^): X tuples spanning the current Y ValidFrom;
//   (ValidFrom^, ValidTo^):   X tuples spanning the current Y ValidTo PLUS
//                             Y tuples contained in the current X lifespan.
// Sweeping the containee (Y) duration shows the crossover: with short Y
// lifespans the (b) ordering retains many contained Y tuples, while with
// long-but-rarely-contained Y tuples the balance shifts.

#include "bench_util.h"
#include "datagen/interval_gen.h"
#include "join/contain_join.h"

namespace tempus {
namespace bench {
namespace {

size_t PeakWorkspace(const TemporalRelation& x, const TemporalRelation& y,
                     TemporalSortOrder xo, TemporalSortOrder yo) {
  const TemporalRelation xs =
      x.SortedBy(ValueOrDie(xo.ToSortSpec(x.schema()), "spec"));
  const TemporalRelation ys =
      y.SortedBy(ValueOrDie(yo.ToSortSpec(y.schema()), "spec"));
  ContainJoinOptions options;
  options.left_order = xo;
  options.right_order = yo;
  std::unique_ptr<TupleStream> join = ValueOrDie(
      MakeContainJoin(VectorStream::Scan(xs),
                      VectorStream::Scan(ys), options),
      "contain join");
  RunPipeline(join.get());
  return join->metrics().peak_workspace_tuples;
}

void Run() {
  Banner("Section 4.1 — workspace vs data statistics (Contain-join)",
         "Peak state for the two appropriate orderings as the containee "
         "duration\nand the X arrival rate vary; the better ordering "
         "flips with the instance.");

  TablePrinter table({"X mean dur", "Y mean dur", "X 1/lambda",
                      "Y 1/lambda", "ws (From^,From^)", "ws (From^,To^)",
                      "better"});
  struct Shape {
    double x_dur, y_dur, x_gap, y_gap;
    // Non-stationary X durations: ramping density is where the two
    // orderings genuinely diverge (state (a) samples X at y.TS, state (b)
    // at y.TE).
    double x_ramp_start = 1.0, x_ramp_end = 1.0;
  };
  const Shape shapes[] = {
      {64, 2, 4, 1},    {64, 16, 4, 1},  {64, 48, 4, 1},
      {256, 8, 16, 1},  {256, 8, 2, 8},  {32, 8, 1, 16},
      {512, 16, 1, 4},  {16, 4, 8, 8},
      {64, 8, 2, 2, 0.1, 8.0},   // X density ramps up 80x.
      {64, 8, 2, 2, 8.0, 0.1},   // X density ramps down.
  };
  for (const Shape& s : shapes) {
    IntervalWorkloadConfig config;
    config.count = Sized(8000);
    config.seed = 5;
    config.mean_duration = s.x_dur;
    config.mean_interarrival = s.x_gap;
    config.duration_ramp_start = s.x_ramp_start;
    config.duration_ramp_end = s.x_ramp_end;
    const TemporalRelation x =
        ValueOrDie(GenerateIntervalRelation("X", config), "gen X");
    config.seed = 6;
    config.mean_duration = s.y_dur;
    config.mean_interarrival = s.y_gap;
    config.duration_ramp_start = 1.0;
    config.duration_ramp_end = 1.0;
    const TemporalRelation y =
        ValueOrDie(GenerateIntervalRelation("Y", config), "gen Y");
    const size_t ws_ff =
        PeakWorkspace(x, y, kByValidFromAsc, kByValidFromAsc);
    const size_t ws_ft = PeakWorkspace(x, y, kByValidFromAsc, kByValidToAsc);
    table.AddRow({StrFormat("%.0f", s.x_dur), StrFormat("%.0f", s.y_dur),
                  StrFormat("%.0f", s.x_gap), StrFormat("%.0f", s.y_gap),
                  StrFormat("%zu", ws_ff), StrFormat("%zu", ws_ft),
                  ws_ff < ws_ft
                      ? "(From^,From^)"
                      : (ws_ft < ws_ff ? "(From^,To^)" : "tie")});
  }
  table.Print();
  std::printf(
      "\nReading: neither ordering dominates — exactly the paper's point "
      "that the\noptimizer needs instance statistics to choose sort "
      "orders.\n");
}

}  // namespace
}  // namespace bench
}  // namespace tempus

int main() {
  tempus::bench::Run();
  return 0;
}

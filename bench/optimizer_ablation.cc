// Ablation — cost-based optimizer vs the heuristic planner
// (docs/OPTIMIZER.md).
//
// Registers interval workloads, runs `analyze` so detailed statistics
// exist, then plans and executes a query set under both optimizer modes
// (pinned in-process through PlannerOptions::optimizer, the same switch
// TEMPUS_OPTIMIZER toggles). For each (query, mode) pair we report the
// sort orders the planner chose, the summed estimated workspace vs the
// measured peak, and wall time — and abort if the two modes ever disagree
// on the result multiset, since the optimizer is only allowed to change
// the plan, never the answer.

#include <algorithm>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "datagen/interval_gen.h"
#include "exec/engine.h"
#include "opt/optimizer.h"
#include "relation/csv.h"

namespace tempus {
namespace bench {
namespace {

struct Query {
  const char* label;
  const char* tql;
};

const Query kQueries[] = {
    {"during join",
     "range of a is X range of b is Y "
     "retrieve (a.S, b.S) where a during b"},
    {"overlap join",
     "range of a is X range of b is Y "
     "retrieve (a.S, b.S) where a overlap b"},
    {"before + equi",
     "range of a is X range of b is Y "
     "retrieve (a.S, b.S) where a before b and a.S = b.S"},
    {"during semijoin",
     "range of a is X range of b is Y "
     "retrieve (a.S) where a during b"},
    {"equi cascade",
     "range of a is X range of b is Y range of c is Z "
     "retrieve (a.S) where a.S = b.S and b.S = c.S"},
};

/// Sort orders the planner chose, read off the plan tree's enforcer
/// labels ("Sort [ValidFrom^]" or "IndexScan X [ValidFrom^] ..." =>
/// "ValidFrom^").
void CollectSortOrders(const TupleStream& node,
                       std::vector<std::string>* orders) {
  const std::string& label = node.label();
  if (label.rfind("Sort [", 0) == 0 || label.rfind("IndexScan ", 0) == 0) {
    const size_t open = label.find('[');
    const size_t close = label.find(']', open);
    if (close != std::string::npos) {
      orders->push_back(label.substr(open + 1, close - open - 1));
    }
  }
  for (const TupleStream* child : node.children()) {
    CollectSortOrders(*child, orders);
  }
}

/// Summed per-node workspace estimate — the quantity the cost model
/// minimizes when it picks orders (docs/OPTIMIZER.md).
double SumEstimatedWorkspace(const TupleStream& node) {
  double total =
      node.estimate().valid ? node.estimate().workspace : 0.0;
  for (const TupleStream* child : node.children()) {
    total += SumEstimatedWorkspace(*child);
  }
  return total;
}

struct ModeRun {
  std::vector<std::string> orders;
  double est_workspace = 0;
  size_t actual_peak_ws = 0;
  double seconds = 0;
  size_t output = 0;
  std::vector<std::string> sorted_rows;  // Result multiset, for equality.
};

ModeRun RunMode(const Engine& engine, const Query& query,
                OptimizerMode mode) {
  PlannerOptions options;
  options.optimizer = mode;
  ModeRun run;

  const auto start = std::chrono::steady_clock::now();
  QueryRun out = ValueOrDie(engine.RunQuery(query.tql, options), query.label);
  const auto end = std::chrono::steady_clock::now();
  CheckOk(out.status, query.label);
  run.seconds = std::chrono::duration<double>(end - start).count();
  run.actual_peak_ws = out.metrics.peak_workspace_tuples;
  run.output = out.result.size();

  // Plan-shape diagnostics come from a fresh Prepare of the same query —
  // RunQuery has already torn its plan down.
  PlannedQuery planned =
      ValueOrDie(engine.Prepare(query.tql, options), query.label);
  CollectSortOrders(*planned.root, &run.orders);
  run.est_workspace = SumEstimatedWorkspace(*planned.root);

  std::ostringstream csv;
  CheckOk(WriteCsv(out.result, &csv), "csv");
  std::string line;
  std::istringstream lines(csv.str());
  while (std::getline(lines, line)) run.sorted_rows.push_back(line);
  std::sort(run.sorted_rows.begin(), run.sorted_rows.end());
  return run;
}

std::string JoinOrders(const std::vector<std::string>& orders) {
  if (orders.empty()) return "(none)";
  std::string out;
  for (const std::string& o : orders) {
    if (!out.empty()) out += ", ";
    out += o;
  }
  return out;
}

void EmitJson(const Query& query, const char* mode, const ModeRun& run) {
  if (std::getenv("TEMPUS_BENCH_JSON") == nullptr) return;
  std::string orders = "[";
  for (size_t i = 0; i < run.orders.size(); ++i) {
    if (i > 0) orders += ",";
    orders += "\"" + JsonEscape(run.orders[i]) + "\"";
  }
  orders += "]";
  std::printf("BENCH_JSON {\"label\":\"%s [%s]\",\"mode\":\"%s\","
              "\"orders\":%s,\"est_workspace\":%.0f,"
              "\"actual_peak_workspace\":%zu,\"seconds\":%.6f,"
              "\"output_tuples\":%zu}\n",
              JsonEscape(query.label).c_str(), mode, mode, orders.c_str(),
              run.est_workspace, run.actual_peak_ws, run.seconds,
              run.output);
}

void Run() {
  Banner("ABLATION — cost-based optimizer vs heuristic planner",
         "Same queries, both optimizer modes; identical results required.\n"
         "est ws sums the per-node workspace estimates; actual ws is the\n"
         "measured plan-wide peak (docs/OPTIMIZER.md).");

  Engine engine;
  IntervalWorkloadConfig config;
  config.count = Sized(4000);
  config.seed = 71;
  config.mean_interarrival = 3.0;
  config.mean_duration = 48.0;
  CheckOk(engine.RegisterValidated(
              ValueOrDie(GenerateIntervalRelation("X", config), "gen X")),
          "register X");
  config.seed = 72;
  config.mean_interarrival = 6.0;
  config.mean_duration = 12.0;
  CheckOk(engine.RegisterValidated(
              ValueOrDie(GenerateIntervalRelation("Y", config), "gen Y")),
          "register Y");
  config.seed = 73;
  config.count = Sized(4000) / 2;
  config.mean_duration = 24.0;
  CheckOk(engine.RegisterValidated(
              ValueOrDie(GenerateIntervalRelation("Z", config), "gen Z")),
          "register Z");
  for (const char* name : {"X", "Y", "Z"}) {
    ValueOrDie(engine.AnalyzeRelation(name), "analyze");
  }

  TablePrinter table({"query", "mode", "orders", "est ws", "actual ws",
                      "time", "out"});
  for (const Query& query : kQueries) {
    const ModeRun cost = RunMode(engine, query, OptimizerMode::kCostBased);
    const ModeRun heur = RunMode(engine, query, OptimizerMode::kHeuristic);
    if (cost.sorted_rows != heur.sorted_rows) {
      std::fprintf(stderr,
                   "FATAL (%s): modes disagree — cost-based %zu rows, "
                   "heuristic %zu rows\n",
                   query.label, cost.output, heur.output);
      std::abort();
    }
    table.AddRow({query.label, "cost-based", JoinOrders(cost.orders),
                  StrFormat("%.0f", cost.est_workspace),
                  StrFormat("%zu", cost.actual_peak_ws),
                  Millis(cost.seconds), StrFormat("%zu", cost.output)});
    table.AddRow({"", "heuristic", JoinOrders(heur.orders),
                  StrFormat("%.0f", heur.est_workspace),
                  StrFormat("%zu", heur.actual_peak_ws),
                  Millis(heur.seconds), StrFormat("%zu", heur.output)});
    EmitJson(query, "cost-based", cost);
    EmitJson(query, "heuristic", heur);
  }
  table.Print();
  std::printf(
      "\nReading: both modes must agree on every result; the cost-based "
      "rows should\nmatch or beat the heuristic's actual ws and time once "
      "statistics exist.\n");
}

}  // namespace
}  // namespace bench
}  // namespace tempus

int main() {
  tempus::bench::Run();
  return 0;
}

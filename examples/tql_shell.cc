// Interactive TQL shell over a demo catalog. Reads statements from stdin
// (terminated by a blank line or EOF) and prints the plan and result.
//
//   $ ./tql_shell
//   tql> range of f1 is Faculty
//   ...> retrieve (f1.Name) where f1.Rank = "Full"
//   ...> <blank line>
//
// Commands: \tables   \stats <relation>   \explain on|off   \analyze on|off
//           \trace on|off   \spill <relation> [tuples_per_page]
//           \quit
//
// Non-interactive modes (exit status 0 on success, 1 on any error):
//   $ ./tql_shell -c 'range of e is Events
//                     retrieve (e.Key) where e.Key < 10'
//   $ ./tql_shell -f script.tql     # statements separated by blank lines

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <memory>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "datagen/faculty_gen.h"
#include "datagen/interval_gen.h"
#include "exec/engine.h"
#include "stats/interval_stats.h"
#include "stats/stats_catalog.h"
#include "storage/paged_relation.h"

namespace {

// Stats freshness tag for \tables: "stats: fresh|stale|none".
const char* StatsTag(const tempus::Engine& engine, const std::string& name,
                     size_t tuple_count) {
  return tempus::StatsCatalog::FreshnessLabel(
      engine.stats().CheckFreshness(name, tuple_count));
}

// One histogram as an ASCII bar chart, buckets merged pairwise until at
// most 16 rows remain.
void PrintHistogram(const char* title, const tempus::Histogram& h) {
  if (h.empty()) {
    std::printf("  %s: (empty)\n", title);
    return;
  }
  std::vector<tempus::TimePoint> bounds = h.bounds;
  std::vector<uint64_t> counts = h.counts;
  while (counts.size() > 16) {
    std::vector<tempus::TimePoint> mb;
    std::vector<uint64_t> mc;
    for (size_t i = 0; i < counts.size(); i += 2) {
      mb.push_back(bounds[i]);
      mc.push_back(i + 1 < counts.size() ? counts[i] + counts[i + 1]
                                         : counts[i]);
    }
    mb.push_back(bounds.back());
    bounds = std::move(mb);
    counts = std::move(mc);
  }
  uint64_t max_count = 1;
  for (uint64_t c : counts) max_count = std::max(max_count, c);
  std::printf("  %s (%llu values, %zu buckets):\n", title,
              (unsigned long long)h.total, h.buckets());
  for (size_t i = 0; i < counts.size(); ++i) {
    const int width = (int)((counts[i] * 40 + max_count - 1) / max_count);
    std::printf("    [%8lld, %8lld) %6llu %.*s\n",
                (long long)bounds[i], (long long)bounds[i + 1],
                (unsigned long long)counts[i], width,
                "########################################");
  }
}

void PrintProfile(const tempus::ConcurrencyProfile& profile) {
  if (profile.empty()) {
    std::printf("  concurrency profile: (empty)\n");
    return;
  }
  std::printf("  concurrency profile (%zu samples, mean %.1f, max %llu):\n",
              profile.at.size(), profile.mean_live,
              (unsigned long long)profile.max_live);
  const uint64_t max_live = std::max<uint64_t>(profile.max_live, 1);
  for (size_t i = 0; i < profile.at.size(); ++i) {
    const int width =
        (int)((profile.live[i] * 40 + max_live - 1) / max_live);
    std::printf("    t=%-10lld %6llu %.*s\n", (long long)profile.at[i],
                (unsigned long long)profile.live[i], width,
                "########################################");
  }
}

// \stats <relation>: the analyze-built statistics, pretty-printed.
void PrintStats(const tempus::Engine& engine, const std::string& name) {
  const std::shared_ptr<const tempus::IntervalStats> stats =
      engine.stats().Lookup(name);
  if (stats == nullptr) {
    std::printf("no statistics for %s — run:  analyze %s\n", name.c_str(),
                name.c_str());
    return;
  }
  std::printf("statistics for %s%s:\n", name.c_str(),
              stats->detailed ? "" : " (coarse)");
  std::printf("  tuples: %llu   lifespan: [%lld, %lld)\n",
              (unsigned long long)stats->tuple_count,
              (long long)stats->min_valid_from,
              (long long)stats->max_valid_to);
  std::printf("  duration: mean %.1f, max %lld   interarrival: mean %.1f   "
              "max concurrency: %llu\n",
              stats->mean_duration, (long long)stats->max_duration,
              stats->mean_interarrival,
              (unsigned long long)stats->max_concurrency);
  PrintHistogram("ValidFrom", stats->starts);
  PrintHistogram("ValidTo", stats->ends);
  PrintHistogram("durations", stats->durations);
  PrintProfile(stats->profile);
}

tempus::Engine MakeDemoEngine() {
  using namespace tempus;
  Engine engine;
  FacultyWorkloadConfig faculty_config;
  faculty_config.faculty_count = 500;
  faculty_config.continuous = true;
  Result<TemporalRelation> faculty =
      GenerateFaculty("Faculty", faculty_config);
  if (faculty.ok()) {
    (void)engine.mutable_integrity()->AddChronologicalDomain(
        "Faculty", FacultyRankDomain(true));
    (void)engine.RegisterValidated(std::move(faculty).value());
  }
  IntervalWorkloadConfig events_config;
  events_config.count = 2000;
  Result<TemporalRelation> events =
      GenerateIntervalRelation("Events", events_config);
  if (events.ok()) {
    (void)engine.mutable_catalog()->Register(std::move(events).value());
  }
  return engine;
}

// Splits a script into statements on blank lines, mirroring the
// interactive loop's blank-line terminator. `#` comment lines belong to
// the statement they appear in (the lexer strips them).
std::vector<std::string> SplitStatements(const std::string& script) {
  std::vector<std::string> statements;
  std::string current;
  std::istringstream in(script);
  std::string line;
  while (std::getline(in, line)) {
    const bool blank = line.find_first_not_of(" \t\r") == std::string::npos;
    if (blank) {
      if (!current.empty()) statements.push_back(std::move(current));
      current.clear();
    } else {
      current += line + "\n";
    }
  }
  if (!current.empty()) statements.push_back(std::move(current));
  return statements;
}

// Runs statements sequentially; stops at the first failure and returns a
// shell exit status (0 ok, 1 error) so scripts can gate on it.
int RunBatch(tempus::Engine* engine, const std::string& script) {
  const std::vector<std::string> statements = SplitStatements(script);
  if (statements.empty()) {
    std::fprintf(stderr, "error: no TQL statements in input\n");
    return 1;
  }
  for (const std::string& statement : statements) {
    tempus::Result<tempus::TemporalRelation> result = engine->Run(statement);
    if (!result.ok()) {
      std::fprintf(stderr, "error: %s\n",
                   result.status().ToString().c_str());
      return 1;
    }
    std::printf("%s", result->ToString(25).c_str());
  }
  return 0;
}

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s                 interactive shell\n"
               "       %s -c '<tql>'      run one script from the command "
               "line\n"
               "       %s -f <file>       run a script file\n",
               argv0, argv0, argv0);
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  tempus::Engine engine = MakeDemoEngine();
  if (argc > 1) {
    if (std::strcmp(argv[1], "-c") == 0) {
      if (argc != 3) return Usage(argv[0]);
      return RunBatch(&engine, argv[2]);
    }
    if (std::strcmp(argv[1], "-f") == 0) {
      if (argc != 3) return Usage(argv[0]);
      std::ifstream file(argv[2]);
      if (!file) {
        std::fprintf(stderr, "error: cannot open %s\n", argv[2]);
        return 1;
      }
      std::ostringstream contents;
      contents << file.rdbuf();
      return RunBatch(&engine, contents.str());
    }
    return Usage(argv[0]);
  }
  bool show_explain = true;
  bool show_analyze = false;
  bool show_trace = false;
  tempus::PlannerOptions planner_options;

  std::printf("tempus TQL shell — demo catalog: Faculty, Events\n");
  std::printf("finish a statement with a blank line; \\quit to exit\n");

  std::string buffer;
  std::string line;
  std::printf("tql> ");
  std::fflush(stdout);
  while (std::getline(std::cin, line)) {
    if (line == "\\quit" || line == "\\q") break;
    if (line == "\\tables") {
      for (const std::string& name : engine.catalog().Names()) {
        tempus::Result<const tempus::TemporalRelation*> mem =
            engine.catalog().Lookup(name);
        if (mem.ok()) {
          std::printf("  %s %s [%zu tuples, stats: %s]\n", name.c_str(),
                      (*mem)->schema().ToString().c_str(), (*mem)->size(),
                      StatsTag(engine, name, (*mem)->size()));
          continue;
        }
        tempus::Result<std::shared_ptr<const tempus::PagedRelation>> paged =
            engine.catalog().LookupPaged(name);
        if (paged.ok()) {
          std::printf("  %s %s [%zu tuples, disk: %zu pages, %.2fx "
                      "compressed, stats: %s]\n",
                      name.c_str(), (*paged)->schema().ToString().c_str(),
                      (*paged)->size(), (*paged)->page_count(),
                      (*paged)->compression_ratio(),
                      StatsTag(engine, name, (*paged)->size()));
        }
      }
      std::printf("tql> ");
      std::fflush(stdout);
      continue;
    }
    if (line.rfind("\\stats", 0) == 0) {
      std::istringstream args(line.substr(6));
      std::string name;
      if (!(args >> name)) {
        std::printf("usage: \\stats <relation>\n");
      } else {
        PrintStats(engine, name);
      }
      std::printf("tql> ");
      std::fflush(stdout);
      continue;
    }
    if (line.rfind("\\spill", 0) == 0) {
      std::istringstream args(line.substr(6));
      std::string name;
      size_t parsed = 0;
      if (!(args >> name)) {
        std::printf("usage: \\spill <relation> [tuples_per_page]\n");
      } else {
        const size_t per_page = (args >> parsed && parsed > 0) ? parsed : 1024;
        tempus::Status spilled = engine.SpillRelation(name, per_page);
        if (spilled.ok()) {
          std::printf("spilled %s to disk (%zu tuples/page); scans now go "
                      "through the buffer pool\n",
                      name.c_str(), per_page);
        } else {
          std::printf("error: %s\n", spilled.ToString().c_str());
        }
      }
      std::printf("tql> ");
      std::fflush(stdout);
      continue;
    }
    if (line == "\\explain on" || line == "\\explain off") {
      show_explain = line.back() == 'n';
      std::printf("tql> ");
      std::fflush(stdout);
      continue;
    }
    if (line == "\\analyze on" || line == "\\analyze off") {
      show_analyze = line.back() == 'n';
      std::printf("tql> ");
      std::fflush(stdout);
      continue;
    }
    if (line == "\\trace on" || line == "\\trace off") {
      show_trace = line.back() == 'n';
      std::printf("tql> ");
      std::fflush(stdout);
      continue;
    }
    if (!line.empty()) {
      buffer += line + "\n";
      std::printf("...> ");
      std::fflush(stdout);
      continue;
    }
    if (buffer.empty()) {
      std::printf("tql> ");
      std::fflush(stdout);
      continue;
    }
    // Execute the accumulated statement.
    if (show_explain) {
      tempus::Result<std::string> explain =
          engine.Explain(buffer, planner_options);
      if (explain.ok()) {
        std::printf("-- plan --\n%s\n", explain->c_str());
      }
    }
    if (show_analyze || show_trace) {
      // Plan with tracing so the annotated report / JSON are available.
      tempus::PlannerOptions traced = planner_options;
      traced.analyze = true;
      tempus::Result<tempus::PlannedQuery> planned =
          engine.Prepare(buffer, traced);
      if (planned.ok()) {
        tempus::Result<tempus::TemporalRelation> result = planned->Execute();
        if (result.ok()) {
          std::printf("%s", result->ToString(25).c_str());
          if (show_analyze) {
            std::printf("-- analyze --\n%s", planned->AnalyzeReport().c_str());
          }
          if (show_trace) {
            std::printf("-- trace --\n%s\n", planned->TraceJson().c_str());
          }
        } else {
          std::printf("error: %s\n", result.status().ToString().c_str());
        }
      } else {
        std::printf("error: %s\n", planned.status().ToString().c_str());
      }
    } else {
      tempus::Result<tempus::TemporalRelation> result =
          engine.Run(buffer, planner_options);
      if (result.ok()) {
        std::printf("%s", result->ToString(25).c_str());
      } else {
        std::printf("error: %s\n", result.status().ToString().c_str());
      }
    }
    buffer.clear();
    std::printf("tql> ");
    std::fflush(stdout);
  }
  std::printf("\nbye\n");
  return 0;
}

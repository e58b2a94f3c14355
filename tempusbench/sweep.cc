// sweep: the Table 1-3 operators over 200k x 200k analyzed relations, one
// in-process caller. Execution (the endpoint sweeps and payload movement)
// dominates here. The optimizer parallelizes contain, semijoin and self but
// not outer or coalesce, so parallelism has a control inside the workload,
// and disk streams a relation three times the size of the buffer pool.

#include <cstdio>

#include "buffer/buffer_manager.h"
#include "harness.h"
#include "storage/paged_relation.h"

namespace tb {
namespace {

using tempus::Result;
using tempus::Status;

// 256 tuples per page spills 200k tuples into 782 pages, about three times
// the default 256-frame pool, so every scan of Bd misses and evicts.
constexpr size_t kDiskTuplesPerPage = 256;

class SweepWorkload : public EngineWorkload {
 public:
  SweepWorkload() {
    classes_ = {
        {"contain",
         "range of a is A range of b is B retrieve (a.S, b.S) "
         "where a contains b"},
        {"semijoin",
         "range of a is A range of b is B retrieve unique (a.S, a.V) "
         "where a overlap b"},
        {"self",
         "range of a is A range of b is A retrieve (a.S, b.S) "
         "where a during b"},
        {"outer", "left join A B on overlaps"},
        {"coalesce", "coalesce A"},
        {"disk",
         "range of a is A range of b is Bd retrieve (a.S, b.S) "
         "where a contains b"},
    };
  }

  Status Setup(const Config& config) override {
    auto engine = std::make_unique<tempus::Engine>();
    const size_t n = config.Size(200000, 3000);
    TEMPUS_RETURN_IF_ERROR(
        RegisterEvents(engine.get(), "A", n, SubSeed(config.seed, 1)));
    TEMPUS_RETURN_IF_ERROR(
        RegisterEvents(engine.get(), "B", n, SubSeed(config.seed, 2)));
    // Bd is B again, spilled to a page file and scanned through the pool.
    TEMPUS_RETURN_IF_ERROR(
        RegisterEvents(engine.get(), "Bd", n, SubSeed(config.seed, 2)));
    TEMPUS_RETURN_IF_ERROR(engine->SpillRelation("Bd", kDiskTuplesPerPage));
    for (const char* name : {"A", "B"}) {
      TEMPUS_RETURN_IF_ERROR(engine->AnalyzeRelation(name).status());
    }
    engine_ = std::move(engine);
    return Status::Ok();
  }

  Status TraceWorkload(Tracer* tracer, LayerSamples* layers) override {
    TEMPUS_ASSIGN_OR_RETURN(std::shared_ptr<const tempus::PagedRelation> bd,
                            engine_->catalog().LookupPaged("Bd"));
    layers->Add("buffer.pages", static_cast<double>(bd->page_count()));
    layers->Add("buffer.frame_budget",
                static_cast<double>(
                    tempus::BufferManager::Global().frame_budget()));
    return TraceRelationStats(*engine_, {"A", "B"}, tracer, layers);
  }

  void PrintFindings(const LayerSamples& layers) const override {
    std::printf("finding sweep.parallel_degree");
    for (const QueryClass& c : classes_) {
      std::printf(" %s=%.0f", c.name.c_str(),
                  layers.MedianOf("opt.parallel_degree." + c.name));
    }
    std::printf(" (semijoin %s 4, outer %s 1)\n",
                layers.MedianOf("opt.parallel_degree.semijoin") == 4 ? "=" : "!=",
                layers.MedianOf("opt.parallel_degree.outer") == 1 ? "=" : "!=");
    const double hits = layers.MedianOf("buffer.hits");
    const double misses = layers.MedianOf("buffer.misses");
    const double evictions = layers.MedianOf("buffer.evictions");
    const double pages = layers.MedianOf("buffer.pages");
    std::printf(
        "finding sweep.disk_buffer per scan of Bd: hits %.0f, misses %.0f, "
        "evictions %.0f, bytes_read %.0f; Bd has %.0f pages for a %.0f-frame "
        "pool (%s)\n",
        hits, misses, evictions, layers.MedianOf("buffer.bytes_read"), pages,
        layers.MedianOf("buffer.frame_budget"),
        hits == 0 && misses == pages && evictions == pages
            ? "every page misses and evicts"
            : "the pool absorbs part of the scan");
    for (const QueryClass& c : classes_) {
      std::printf("finding sweep.execute_vs_plan.%s execute %.3f ms vs plan "
                  "%.3f ms\n",
                  c.name.c_str(), layers.MedianOf("exec.execute_ms." + c.name),
                  layers.MedianOf("plan.plan_ms." + c.name));
    }
  }
};

}  // namespace

std::unique_ptr<Workload> MakeSweepWorkload() {
  return std::make_unique<SweepWorkload>();
}

}  // namespace tb

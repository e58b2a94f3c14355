// lookup: large analyzed relations and tiny results, one in-process caller.
// Almost all of an operation's time is planning, so this is the workload
// that shows planning cost growing with relation size.

#include <cstdio>

#include "harness.h"

namespace tb {
namespace {

using tempus::Result;
using tempus::Status;

constexpr const char* kSuperstar =
    "range of f1 is Faculty range of f2 is Faculty range of f3 is Faculty "
    "retrieve unique (f1.Name, f1.ValidFrom, f2.ValidTo) "
    "where f1.Name = f2.Name and f1.Rank = \"Assistant\" "
    "and f2.Rank = \"Full\" and f3.Rank = \"Associate\" "
    "and f1 overlap f3 and f2 overlap f3";

class LookupWorkload : public EngineWorkload {
 public:
  LookupWorkload() {
    classes_ = {
        {"filter1",
         "range of a is A retrieve (a.S, a.V) where a.V < 5"},
        {"overlap2",
         "range of a is A range of b is B retrieve (a.S, b.S) "
         "where a.V = 7 and b.V = 8 and a overlap b"},
        {"superstar", kSuperstar},
    };
  }

  Status Setup(const Config& config) override {
    auto engine = std::make_unique<tempus::Engine>();
    const size_t events = config.Size(500000, 4000);
    TEMPUS_RETURN_IF_ERROR(RegisterEvents(engine.get(), "A", events,
                                          SubSeed(config.seed, 1)));
    TEMPUS_RETURN_IF_ERROR(RegisterEvents(engine.get(), "B", events,
                                          SubSeed(config.seed, 2)));
    TEMPUS_RETURN_IF_ERROR(RegisterFaculty(engine.get(),
                                           config.Size(50000, 400),
                                           SubSeed(config.seed, 3)));
    for (const char* name : {"A", "B", "Faculty"}) {
      TEMPUS_RETURN_IF_ERROR(engine->AnalyzeRelation(name).status());
    }
    engine_ = std::move(engine);
    return Status::Ok();
  }

  Status TraceWorkload(Tracer* tracer, LayerSamples* layers) override {
    return TraceRelationStats(*engine_, {"A", "B", "Faculty"}, tracer,
                              layers);
  }

  void PrintFindings(const LayerSamples& layers) const override {
    for (const QueryClass& c : classes_) {
      const double plan = layers.MedianOf("plan.plan_ms." + c.name);
      const double exec = layers.MedianOf("exec.execute_ms." + c.name);
      std::printf(
          "finding lookup.plan_vs_execute.%s plan %.3f ms vs execute %.3f ms "
          "(plan/execute %.2f, %s)\n",
          c.name.c_str(), plan, exec, exec > 0 ? plan / exec : 0.0,
          plan > exec ? "planning dominates" : "execution dominates");
    }
    std::printf(
        "finding lookup.compute_stats A %.3f ms, B %.3f ms, Faculty %.3f ms "
        "(TemporalRelation::ComputeStats, which planning recomputes)\n",
        layers.MedianOf("relation.compute_stats_ms.A"),
        layers.MedianOf("relation.compute_stats_ms.B"),
        layers.MedianOf("relation.compute_stats_ms.Faculty"));
  }
};

}  // namespace

std::unique_ptr<Workload> MakeLookupWorkload() {
  return std::make_unique<LookupWorkload>();
}

}  // namespace tb

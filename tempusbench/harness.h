#ifndef TEMPUSBENCH_HARNESS_H_
#define TEMPUSBENCH_HARNESS_H_

// Shared pieces of the tempus benchmark: result digests, percentiles,
// in-memory spans, metric output, and the Workload interface that the
// serve, lookup and sweep workloads implement.

#include <chrono>
#include <cstdint>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "exec/engine.h"
#include "relation/temporal_relation.h"

namespace tb {

using Clock = std::chrono::steady_clock;

double MsBetween(Clock::time_point from, Clock::time_point to);

/// Row count plus an order-independent digest: the wrapping sum of a
/// per-row FNV-1a hash over the rendered values, so any permutation of the
/// same multiset of rows gives the same digest.
struct Digest {
  size_t rows = 0;
  uint64_t sum = 0;

  bool operator==(const Digest& other) const {
    return rows == other.rows && sum == other.sum;
  }
  std::string Hex() const;
};

Digest DigestOf(const tempus::TemporalRelation& relation);

/// Nearest-rank percentile (p in [0, 1]) of an unsorted sample; 0 if empty.
double Percentile(std::vector<double> values, double p);
double Median(std::vector<double> values);

/// Sizes and paths every workload is built from.
struct Config {
  uint64_t seed = 1;
  /// True for the self-test: every relation shrinks to a few thousand rows.
  bool tiny = false;
  /// Directory inside the checkout for files the benchmark writes.
  std::string workdir;

  size_t Size(size_t full, size_t tiny_size) const {
    return tiny ? tiny_size : full;
  }
};

/// One timed call into a module, recorded in memory during the traced run
/// and written out at the end. Times are milliseconds since the tracer
/// started; `parent` is an index into the same span list (-1 for a root).
struct Span {
  std::string name;
  double start_ms = 0.0;
  double end_ms = 0.0;
  int parent = -1;
  uint64_t query = 0;
};

class Tracer {
 public:
  Tracer() : origin_(Clock::now()) {}

  int Begin(std::string name, int parent, uint64_t query);
  /// Closes span `id` and returns its duration in milliseconds.
  double End(int id);

  /// Sum of each span name's self time: its duration minus the part of it
  /// that its child spans cover.
  std::map<std::string, double> SelfMsByName() const;
  const std::vector<Span>& spans() const { return spans_; }

  tempus::Status WriteJson(const std::string& path) const;

 private:
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// Per-layer samples of the traced run, keyed by metric name; each metric
/// reports the median of its samples.
class LayerSamples {
 public:
  void Add(const std::string& name, double value) {
    samples_[name].push_back(value);
  }
  double MedianOf(const std::string& name) const;
  const std::map<std::string, std::vector<double>>& all() const {
    return samples_;
  }

 private:
  std::map<std::string, std::vector<double>> samples_;
};

/// Prints "metric <name> <value> <unit>" lines, which run.py gathers into
/// the final JSON object.
void PrintMetric(const std::string& name, double value, const char* unit);

/// The per-layer timings of one query, decomposed the way Engine::RunQuery
/// composes it: parse, snapshot + plan, execute, and optionally the CSV
/// encoding the server applies before sending.
struct QueryLayers {
  double parse_ms = 0.0;
  double plan_ms = 0.0;
  double execute_ms = 0.0;
  double encode_ms = 0.0;
  size_t encode_bytes = 0;
  /// Freeing the result relation and the operator tree.
  double release_ms = 0.0;
  size_t parallel_degree = 1;
  tempus::OperatorMetrics metrics;
  size_t rows = 0;
  /// BufferManager::Global() deltas across Execute().
  uint64_t buffer_hits = 0;
  uint64_t buffer_misses = 0;
  uint64_t buffer_evictions = 0;
  uint64_t buffer_bytes_read = 0;
};

/// Runs `tql` against `engine` through the public module functions
/// (ParseTql, Catalog::Snapshot, Planner::Plan, PlannedQuery::Execute,
/// CollectPlanMetrics and, with `encode`, WriteCsv), then frees the result
/// and the plan, recording one span per step under `parent`.
tempus::Result<QueryLayers> TraceQuery(const tempus::Engine& engine,
                                       const std::string& tql, bool encode,
                                       Tracer* tracer, int parent,
                                       uint64_t query);

/// Adds the samples of one traced query of class `cls` to `layers`.
void AddQueryLayers(const std::string& cls, const QueryLayers& q,
                    LayerSamples* layers);

/// The largest K of any "[parallel xK]" note in an EXPLAIN text; 1 if none.
size_t ParallelDegreeOf(const std::string& explain);

/// A workload: its setup, its query classes, one untraced operation, the
/// result digests, and the traced decomposition of an operation.
class Workload {
 public:
  virtual ~Workload() = default;

  /// The query classes' names. One cycle of the closed loop runs each
  /// class once, in this order.
  virtual std::vector<std::string> Classes() const = 0;
  /// Concurrent closed-loop callers.
  virtual size_t Callers() const { return 1; }

  /// Builds everything the timed window needs from `config`, on a workload
  /// that is new or torn down.
  virtual tempus::Status Setup(const Config& config) = 0;
  /// Releases what Setup built (stops servers, removes files); idempotent.
  virtual void Teardown() = 0;

  /// One untraced operation of class `cls` issued by caller `caller`;
  /// returns the number of result rows.
  virtual tempus::Result<size_t> RunOnce(size_t cls, size_t caller) = 0;

  /// Digest of a result produced by the measured path.
  virtual tempus::Result<Digest> MeasuredDigest(size_t cls) = 0;
  /// Digest of the same class planned with OptimizerMode::kHeuristic and
  /// threads=1: the cross-check that keeps any seed verified.
  virtual tempus::Result<Digest> ReferenceDigest(size_t cls) = 0;

  /// Failures the workload observed outside RunOnce results (server-side
  /// rejections, GC-ledger violations).
  virtual uint64_t ExtraFailures() const { return 0; }

  /// One traced operation of class `cls`; adds its per-layer samples.
  virtual tempus::Status TraceOnce(size_t cls, Tracer* tracer, uint64_t query,
                                   LayerSamples* layers) = 0;
  /// Workload-wide per-layer metrics measured once in the traced run
  /// (statistics builds, buffer traffic, server counters).
  virtual tempus::Status TraceWorkload(Tracer* tracer,
                                       LayerSamples* layers) = 0;
  /// Prints the baseline findings this workload can read off its traced
  /// numbers.
  virtual void PrintFindings(const LayerSamples& layers) const = 0;
};

std::unique_ptr<Workload> MakeServeWorkload();
std::unique_ptr<Workload> MakeLookupWorkload();
std::unique_ptr<Workload> MakeSweepWorkload();

/// A per-relation seed derived from the workload seed, so one --seed fixes
/// every generated input.
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/// Generates an Events-shaped <S, V, ValidFrom, ValidTo> relation (V uniform
/// in [0, 1000)) and registers it under `name`.
tempus::Status RegisterEvents(tempus::Engine* engine, const std::string& name,
                              size_t count, uint64_t seed);

/// Declares the Rank chronology for Faculty and registers a generated,
/// continuously employed Faculty relation of `careers` careers.
tempus::Status RegisterFaculty(tempus::Engine* engine, size_t careers,
                               uint64_t seed);

/// Times TemporalRelation::ComputeStats and Engine::AnalyzeRelation for each
/// in-memory relation in `names` (relation.compute_stats_ms.<rel> and
/// stats.analyze_ms.<rel>).
tempus::Status TraceRelationStats(const tempus::Engine& engine,
                                  const std::vector<std::string>& names,
                                  Tracer* tracer, LayerSamples* layers);

/// OptimizerMode::kHeuristic with threads=1: the plan every measured result
/// is cross-checked against.
tempus::PlannerOptions ReferenceOptions();

/// Runs `tql` through Engine::RunQuery and digests its result.
tempus::Result<Digest> DigestOfQuery(const tempus::Engine& engine,
                                     const std::string& tql,
                                     const tempus::PlannerOptions& options);

/// Query classes the in-process workloads run through Engine::RunQuery.
struct QueryClass {
  std::string name;
  std::string tql;
};

/// Shared base of the in-process workloads (lookup, sweep): one caller
/// thread, Engine::RunQuery per operation.
class EngineWorkload : public Workload {
 public:
  std::vector<std::string> Classes() const override;
  tempus::Result<size_t> RunOnce(size_t cls, size_t caller) override;
  tempus::Result<Digest> MeasuredDigest(size_t cls) override;
  tempus::Result<Digest> ReferenceDigest(size_t cls) override;
  tempus::Status TraceOnce(size_t cls, Tracer* tracer, uint64_t query,
                           LayerSamples* layers) override;
  void Teardown() override { engine_.reset(); }

 protected:
  std::vector<QueryClass> classes_;
  std::unique_ptr<tempus::Engine> engine_;
};

}  // namespace tb

#endif  // TEMPUSBENCH_HARNESS_H_

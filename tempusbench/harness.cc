#include "harness.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "buffer/buffer_manager.h"
#include "common/string_util.h"
#include "datagen/faculty_gen.h"
#include "datagen/interval_gen.h"
#include "obs/metrics_json.h"
#include "plan/planner.h"
#include "relation/csv.h"
#include "tql/parser.h"

namespace tb {

using tempus::Result;
using tempus::Status;

double MsBetween(Clock::time_point from, Clock::time_point to) {
  return std::chrono::duration<double, std::milli>(to - from).count();
}

std::string Digest::Hex() const {
  return tempus::StrFormat("%016llx", static_cast<unsigned long long>(sum));
}

Digest DigestOf(const tempus::TemporalRelation& relation) {
  Digest digest;
  digest.rows = relation.size();
  char buffer[24];
  for (const tempus::Tuple& tuple : relation.tuples()) {
    uint64_t h = 1469598103934665603ULL;
    auto mix = [&h](std::string_view bytes) {
      for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ULL;
      }
    };
    for (const tempus::Value& value : tuple.values()) {
      // The bytes of value.ToString() followed by '\x1f', without building
      // the string for the common kinds: digests of million-row results
      // would otherwise take seconds.
      switch (value.kind()) {
        case tempus::Value::Kind::kInt: {
          const auto end = std::to_chars(buffer, buffer + sizeof(buffer),
                                         value.int_value()).ptr;
          mix(std::string_view(buffer, end - buffer));
          break;
        }
        case tempus::Value::Kind::kString:
          mix("\"");
          mix(value.string_value());
          mix("\"");
          break;
        default:
          mix(value.ToString());
          break;
      }
      mix("\x1f");
    }
    // Finalize (splitmix64) so that summing rows does not cancel the
    // low-entropy FNV bits of near-identical rows.
    h ^= h >> 30;
    h *= 0xbf58476d1ce4e5b9ULL;
    h ^= h >> 27;
    h *= 0x94d049bb133111ebULL;
    h ^= h >> 31;
    digest.sum += h;
  }
  return digest;
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  // Nearest rank: the smallest value with at least p of the sample at or
  // below it.
  size_t rank = static_cast<size_t>(p * static_cast<double>(values.size()) +
                                    0.999999);
  if (rank == 0) rank = 1;
  return values[std::min(rank, values.size()) - 1];
}

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2]
                    : (values[n / 2 - 1] + values[n / 2]) / 2.0;
}

int Tracer::Begin(std::string name, int parent, uint64_t query) {
  Span span;
  span.name = std::move(name);
  span.parent = parent;
  span.query = query;
  span.start_ms = MsBetween(origin_, Clock::now());
  spans_.push_back(std::move(span));
  return static_cast<int>(spans_.size()) - 1;
}

double Tracer::End(int id) {
  Span& span = spans_[static_cast<size_t>(id)];
  span.end_ms = MsBetween(origin_, Clock::now());
  return span.end_ms - span.start_ms;
}

std::map<std::string, double> Tracer::SelfMsByName() const {
  std::vector<double> child_ms(spans_.size(), 0.0);
  for (const Span& span : spans_) {
    if (span.parent >= 0) {
      child_ms[static_cast<size_t>(span.parent)] += span.end_ms - span.start_ms;
    }
  }
  std::map<std::string, double> self;
  for (size_t i = 0; i < spans_.size(); ++i) {
    self[spans_[i].name] +=
        spans_[i].end_ms - spans_[i].start_ms - child_ms[i];
  }
  return self;
}

Status Tracer::WriteJson(const std::string& path) const {
  std::ofstream out(path);
  if (!out.is_open()) return Status::InvalidArgument("cannot write " + path);
  out << "[\n";
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    out << tempus::StrFormat(
        "{\"id\":%zu,\"name\":\"%s\",\"start_ms\":%.6f,\"end_ms\":%.6f,"
        "\"parent\":%d,\"query\":%llu}%s\n",
        i, tempus::JsonEscape(s.name).c_str(), s.start_ms, s.end_ms, s.parent,
        static_cast<unsigned long long>(s.query),
        i + 1 < spans_.size() ? "," : "");
  }
  out << "]\n";
  return out.good() ? Status::Ok() : Status::Internal("write failed: " + path);
}

double LayerSamples::MedianOf(const std::string& name) const {
  auto it = samples_.find(name);
  return it == samples_.end() ? 0.0 : Median(it->second);
}

void PrintMetric(const std::string& name, double value, const char* unit) {
  std::printf("metric %s %.17g %s\n", name.c_str(), value, unit);
}

size_t ParallelDegreeOf(const std::string& explain) {
  size_t degree = 1;
  const std::string marker = "[parallel x";
  for (size_t pos = explain.find(marker); pos != std::string::npos;
       pos = explain.find(marker, pos + 1)) {
    degree = std::max<size_t>(
        degree, std::strtoull(explain.c_str() + pos + marker.size(), nullptr,
                              10));
  }
  return degree;
}

Result<QueryLayers> TraceQuery(const tempus::Engine& engine,
                               const std::string& tql, bool encode,
                               Tracer* tracer, int parent, uint64_t query) {
  QueryLayers layers;
  int span = tracer->Begin("tql.parse", parent, query);
  Result<tempus::ConjunctiveQuery> parsed = tempus::ParseTql(tql);
  layers.parse_ms = tracer->End(span);
  if (!parsed.ok()) return parsed.status();

  span = tracer->Begin("plan.plan", parent, query);
  const tempus::Catalog snapshot = engine.catalog().Snapshot();
  tempus::Planner planner(&snapshot, &engine.integrity(), &engine.stats());
  Result<tempus::PlannedQuery> planned = planner.Plan(*parsed);
  layers.plan_ms = tracer->End(span);
  if (!planned.ok()) return planned.status();
  layers.parallel_degree = ParallelDegreeOf(planned->explain);

  const tempus::BufferPoolStats before = tempus::BufferManager::Global().Stats();
  span = tracer->Begin("exec.execute", parent, query);
  Result<tempus::TemporalRelation> result = planned->Execute();
  layers.execute_ms = tracer->End(span);
  if (!result.ok()) return result.status();
  const tempus::BufferPoolStats after = tempus::BufferManager::Global().Stats();
  layers.metrics = tempus::CollectPlanMetrics(*planned->root);
  layers.rows = result->size();
  layers.buffer_hits = after.hits - before.hits;
  layers.buffer_misses = after.misses - before.misses;
  layers.buffer_evictions = after.evictions - before.evictions;
  layers.buffer_bytes_read = after.bytes_read - before.bytes_read;

  if (encode) {
    span = tracer->Begin("relation.encode", parent, query);
    std::ostringstream csv;
    const Status written = tempus::WriteCsv(*result, &csv);
    layers.encode_bytes = csv.tellp();
    layers.encode_ms = tracer->End(span);
    if (!written.ok()) return written;
  }

  // Freeing the result and the operator tree is part of every query's cost
  // (Engine::RunQuery's caller pays it when the QueryRun goes away).
  span = tracer->Begin("exec.release", parent, query);
  { tempus::TemporalRelation released = std::move(*result); }
  planned->root.reset();
  layers.release_ms = tracer->End(span);
  return layers;
}

void AddQueryLayers(const std::string& cls, const QueryLayers& q,
                    LayerSamples* layers) {
  const tempus::OperatorMetrics& m = q.metrics;
  layers->Add("tql.parse_ms." + cls, q.parse_ms);
  layers->Add("plan.plan_ms." + cls, q.plan_ms);
  layers->Add("exec.execute_ms." + cls, q.execute_ms);
  layers->Add("exec.release_ms." + cls, q.release_ms);
  layers->Add("exec.rows." + cls, static_cast<double>(q.rows));
  layers->Add("join.comparisons." + cls, static_cast<double>(m.comparisons));
  layers->Add("join.peak_workspace." + cls,
              static_cast<double>(m.peak_workspace_tuples));
  layers->Add("join.gc_ratio." + cls,
              m.workspace_inserted == 0
                  ? 0.0
                  : static_cast<double>(m.gc_discarded) /
                        static_cast<double>(m.workspace_inserted));
  layers->Add("stream.kernel_selectivity." + cls,
              m.kernel_rows_in == 0
                  ? 0.0
                  : static_cast<double>(m.kernel_rows_out) /
                        static_cast<double>(m.kernel_rows_in));
  layers->Add("opt.parallel_degree." + cls,
              static_cast<double>(q.parallel_degree));
  layers->Add("parallel.workers." + cls, static_cast<double>(m.workers));
  layers->Add("parallel.merge_comparisons." + cls,
              static_cast<double>(m.merge_comparisons));
  if (q.encode_bytes > 0) {
    layers->Add("relation.encode_ms." + cls, q.encode_ms);
    layers->Add("relation.encode_bytes." + cls,
                static_cast<double>(q.encode_bytes));
  }
  // Buffer-pool traffic is reported for the operations that touch the
  // pool (the disk-backed scans); the in-memory classes would only dilute
  // the per-scan figures with zeros.
  if (q.buffer_hits + q.buffer_misses > 0) {
    const double hits = static_cast<double>(q.buffer_hits);
    const double misses = static_cast<double>(q.buffer_misses);
    layers->Add("buffer.hits", hits);
    layers->Add("buffer.misses", misses);
    layers->Add("buffer.evictions", static_cast<double>(q.buffer_evictions));
    layers->Add("buffer.hit_ratio", hits / (hits + misses));
    layers->Add("buffer.bytes_read", static_cast<double>(q.buffer_bytes_read));
  }
}

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Status RegisterEvents(tempus::Engine* engine, const std::string& name,
                      size_t count, uint64_t seed) {
  tempus::IntervalWorkloadConfig config;
  config.count = count;
  config.seed = seed;
  TEMPUS_ASSIGN_OR_RETURN(tempus::TemporalRelation relation,
                          tempus::GenerateIntervalRelation(name, config));
  return engine->mutable_catalog()->Register(std::move(relation));
}

Status RegisterFaculty(tempus::Engine* engine, size_t careers, uint64_t seed) {
  TEMPUS_RETURN_IF_ERROR(engine->mutable_integrity()->AddChronologicalDomain(
      "Faculty", tempus::FacultyRankDomain(true)));
  tempus::FacultyWorkloadConfig config;
  config.faculty_count = careers;
  config.seed = seed;
  config.continuous = true;
  TEMPUS_ASSIGN_OR_RETURN(tempus::TemporalRelation faculty,
                          tempus::GenerateFaculty("Faculty", config));
  return engine->RegisterValidated(std::move(faculty));
}

Status TraceRelationStats(const tempus::Engine& engine,
                          const std::vector<std::string>& names,
                          Tracer* tracer, LayerSamples* layers) {
  for (const std::string& name : names) {
    TEMPUS_ASSIGN_OR_RETURN(const tempus::TemporalRelation* relation,
                            engine.catalog().Lookup(name));
    int span = tracer->Begin("relation.compute_stats", -1, 0);
    Result<tempus::RelationStats> stats = relation->ComputeStats();
    layers->Add("relation.compute_stats_ms." + name, tracer->End(span));
    TEMPUS_RETURN_IF_ERROR(stats.status());
    span = tracer->Begin("stats.analyze", -1, 0);
    Result<std::shared_ptr<const tempus::IntervalStats>> analyzed =
        engine.AnalyzeRelation(name);
    layers->Add("stats.analyze_ms." + name, tracer->End(span));
    TEMPUS_RETURN_IF_ERROR(analyzed.status());
  }
  return Status::Ok();
}

std::vector<std::string> EngineWorkload::Classes() const {
  std::vector<std::string> names;
  for (const QueryClass& c : classes_) names.push_back(c.name);
  return names;
}

tempus::PlannerOptions ReferenceOptions() {
  tempus::PlannerOptions reference;
  reference.optimizer = tempus::OptimizerMode::kHeuristic;
  reference.threads = 1;
  return reference;
}

Result<Digest> DigestOfQuery(const tempus::Engine& engine,
                             const std::string& tql,
                             const tempus::PlannerOptions& options) {
  TEMPUS_ASSIGN_OR_RETURN(tempus::QueryRun run, engine.RunQuery(tql, options));
  TEMPUS_RETURN_IF_ERROR(run.status);
  return DigestOf(run.result);
}

Result<size_t> EngineWorkload::RunOnce(size_t cls, size_t /*caller*/) {
  TEMPUS_ASSIGN_OR_RETURN(tempus::QueryRun run,
                          engine_->RunQuery(classes_[cls].tql));
  TEMPUS_RETURN_IF_ERROR(run.status);
  return run.result.size();
}

Result<Digest> EngineWorkload::MeasuredDigest(size_t cls) {
  return DigestOfQuery(*engine_, classes_[cls].tql, {});
}

Result<Digest> EngineWorkload::ReferenceDigest(size_t cls) {
  return DigestOfQuery(*engine_, classes_[cls].tql, ReferenceOptions());
}

Status EngineWorkload::TraceOnce(size_t cls, Tracer* tracer, uint64_t query,
                                 LayerSamples* layers) {
  const int root = tracer->Begin("op." + classes_[cls].name, -1, query);
  Result<QueryLayers> q =
      TraceQuery(*engine_, classes_[cls].tql, false, tracer, root, query);
  layers->Add("trace.traced_ms." + classes_[cls].name, tracer->End(root));
  TEMPUS_RETURN_IF_ERROR(q.status());
  AddQueryLayers(classes_[cls].name, *q, layers);
  return Status::Ok();
}

}  // namespace tb

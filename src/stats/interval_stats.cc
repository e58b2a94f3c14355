#include "stats/interval_stats.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <cstdlib>
#include <utility>

#include "common/fault.h"
#include "common/string_util.h"

namespace tempus {
namespace {

/// Concurrency profiles keep at most this many sample points; the sweep
/// sees every change point but stores an evenly spaced subset.
constexpr size_t kMaxProfileSamples = 64;

std::string Int64ToJson(int64_t v) {
  return std::to_string(static_cast<long long>(v));
}

std::string DoubleToJson(double v) {
  if (!std::isfinite(v)) return "0";
  std::string s = StrFormat("%.17g", v);
  return s;
}

std::string TimeArrayToJson(const std::vector<TimePoint>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += Int64ToJson(values[i]);
  }
  out += "]";
  return out;
}

std::string CountArrayToJson(const std::vector<uint64_t>& values) {
  std::string out = "[";
  for (size_t i = 0; i < values.size(); ++i) {
    if (i > 0) out += ",";
    out += std::to_string(static_cast<unsigned long long>(values[i]));
  }
  out += "]";
  return out;
}

std::string HistogramToJson(const Histogram& h) {
  return "{\"bounds\":" + TimeArrayToJson(h.bounds) +
         ",\"counts\":" + CountArrayToJson(h.counts) +
         ",\"total\":" + std::to_string((unsigned long long)h.total) + "}";
}

std::string ProfileToJson(const ConcurrencyProfile& p) {
  return "{\"at\":" + TimeArrayToJson(p.at) +
         ",\"live\":" + CountArrayToJson(p.live) +
         ",\"mean_live\":" + DoubleToJson(p.mean_live) +
         ",\"max_live\":" + std::to_string((unsigned long long)p.max_live) +
         "}";
}

/// Minimal recursive-descent parser for the JSON subset ToJson emits:
/// objects with string keys, arrays, integer/float numbers, and booleans.
/// Integers are kept exactly (the kMinTime/kMaxTime sentinels in empty
/// statistics do not survive a round-trip through double).
struct JsonValue {
  enum Kind { kNull, kBool, kNumber, kArray, kObject } kind = kNull;
  bool bool_v = false;
  double num_v = 0.0;
  int64_t int_v = 0;
  bool is_int = false;
  std::vector<JsonValue> arr;
  std::vector<std::pair<std::string, JsonValue>> obj;

  const JsonValue* Find(const std::string& key) const {
    for (const auto& [k, v] : obj) {
      if (k == key) return &v;
    }
    return nullptr;
  }
  int64_t AsInt64() const {
    return is_int ? int_v : static_cast<int64_t>(std::llround(num_v));
  }
  double AsDouble() const {
    return is_int ? static_cast<double>(int_v) : num_v;
  }
};

class JsonParser {
 public:
  explicit JsonParser(const std::string& text)
      : p_(text.data()), end_(text.data() + text.size()) {}

  Result<JsonValue> Parse() {
    TEMPUS_ASSIGN_OR_RETURN(JsonValue v, ParseValue());
    SkipWs();
    if (p_ != end_) return Fail("trailing characters");
    return v;
  }

 private:
  Status Fail(const char* what) const {
    return Status::InvalidArgument(
        StrFormat("stats JSON parse error at offset %zu: %s",
                  static_cast<size_t>(end_ - p_), what));
  }

  void SkipWs() {
    while (p_ != end_ &&
           std::isspace(static_cast<unsigned char>(*p_)) != 0) {
      ++p_;
    }
  }

  Result<JsonValue> ParseValue() {
    SkipWs();
    if (p_ == end_) return Fail("unexpected end of input");
    switch (*p_) {
      case '{':
        return ParseObject();
      case '[':
        return ParseArray();
      case 't':
      case 'f':
        return ParseBool();
      default:
        return ParseNumber();
    }
  }

  Result<JsonValue> ParseObject() {
    ++p_;  // '{'
    JsonValue v;
    v.kind = JsonValue::kObject;
    SkipWs();
    if (p_ != end_ && *p_ == '}') {
      ++p_;
      return v;
    }
    while (true) {
      TEMPUS_ASSIGN_OR_RETURN(std::string key, ParseString());
      SkipWs();
      if (p_ == end_ || *p_ != ':') return Fail("expected ':'");
      ++p_;
      TEMPUS_ASSIGN_OR_RETURN(JsonValue member, ParseValue());
      v.obj.emplace_back(std::move(key), std::move(member));
      SkipWs();
      if (p_ != end_ && *p_ == ',') {
        ++p_;
        SkipWs();
        continue;
      }
      if (p_ != end_ && *p_ == '}') {
        ++p_;
        return v;
      }
      return Fail("expected ',' or '}'");
    }
  }

  Result<JsonValue> ParseArray() {
    ++p_;  // '['
    JsonValue v;
    v.kind = JsonValue::kArray;
    SkipWs();
    if (p_ != end_ && *p_ == ']') {
      ++p_;
      return v;
    }
    while (true) {
      TEMPUS_ASSIGN_OR_RETURN(JsonValue item, ParseValue());
      v.arr.push_back(std::move(item));
      SkipWs();
      if (p_ != end_ && *p_ == ',') {
        ++p_;
        continue;
      }
      if (p_ != end_ && *p_ == ']') {
        ++p_;
        return v;
      }
      return Fail("expected ',' or ']'");
    }
  }

  Result<JsonValue> ParseBool() {
    JsonValue v;
    v.kind = JsonValue::kBool;
    if (end_ - p_ >= 4 && std::string_view(p_, 4) == "true") {
      v.bool_v = true;
      p_ += 4;
      return v;
    }
    if (end_ - p_ >= 5 && std::string_view(p_, 5) == "false") {
      v.bool_v = false;
      p_ += 5;
      return v;
    }
    return Fail("bad literal");
  }

  Result<std::string> ParseString() {
    SkipWs();
    if (p_ == end_ || *p_ != '"') return Fail("expected '\"'");
    ++p_;
    std::string out;
    while (p_ != end_ && *p_ != '"') {
      if (*p_ == '\\') return Fail("escapes unsupported in stats keys");
      out.push_back(*p_++);
    }
    if (p_ == end_) return Fail("unterminated string");
    ++p_;
    return out;
  }

  Result<JsonValue> ParseNumber() {
    const char* start = p_;
    if (p_ != end_ && (*p_ == '-' || *p_ == '+')) ++p_;
    bool has_frac = false;
    while (p_ != end_ &&
           (std::isdigit(static_cast<unsigned char>(*p_)) != 0 ||
            *p_ == '.' || *p_ == 'e' || *p_ == 'E' || *p_ == '-' ||
            *p_ == '+')) {
      if (*p_ == '.' || *p_ == 'e' || *p_ == 'E') has_frac = true;
      ++p_;
    }
    if (p_ == start) return Fail("expected number");
    const std::string token(start, p_);
    JsonValue v;
    v.kind = JsonValue::kNumber;
    if (!has_frac) {
      errno = 0;
      v.int_v = std::strtoll(token.c_str(), nullptr, 10);
      v.is_int = errno == 0;
      v.num_v = static_cast<double>(v.int_v);
      if (v.is_int) return v;
    }
    v.is_int = false;
    v.num_v = std::strtod(token.c_str(), nullptr);
    return v;
  }

  const char* p_;
  const char* end_;
};

Result<std::vector<TimePoint>> ReadTimeArray(const JsonValue& parent,
                                             const std::string& key) {
  const JsonValue* v = parent.Find(key);
  if (v == nullptr || v->kind != JsonValue::kArray) {
    return Status::InvalidArgument("stats JSON missing array \"" + key +
                                   "\"");
  }
  std::vector<TimePoint> out;
  out.reserve(v->arr.size());
  for (const JsonValue& item : v->arr) out.push_back(item.AsInt64());
  return out;
}

Result<std::vector<uint64_t>> ReadCountArray(const JsonValue& parent,
                                             const std::string& key) {
  const JsonValue* v = parent.Find(key);
  if (v == nullptr || v->kind != JsonValue::kArray) {
    return Status::InvalidArgument("stats JSON missing array \"" + key +
                                   "\"");
  }
  std::vector<uint64_t> out;
  out.reserve(v->arr.size());
  for (const JsonValue& item : v->arr) {
    out.push_back(static_cast<uint64_t>(item.AsInt64()));
  }
  return out;
}

Result<int64_t> ReadInt(const JsonValue& parent, const std::string& key) {
  const JsonValue* v = parent.Find(key);
  if (v == nullptr || v->kind != JsonValue::kNumber) {
    return Status::InvalidArgument("stats JSON missing number \"" + key +
                                   "\"");
  }
  return v->AsInt64();
}

Result<double> ReadDouble(const JsonValue& parent, const std::string& key) {
  const JsonValue* v = parent.Find(key);
  if (v == nullptr || v->kind != JsonValue::kNumber) {
    return Status::InvalidArgument("stats JSON missing number \"" + key +
                                   "\"");
  }
  return v->AsDouble();
}

Result<Histogram> ReadHistogram(const JsonValue& parent,
                                const std::string& key) {
  const JsonValue* v = parent.Find(key);
  if (v == nullptr || v->kind != JsonValue::kObject) {
    return Status::InvalidArgument("stats JSON missing histogram \"" + key +
                                   "\"");
  }
  Histogram h;
  TEMPUS_ASSIGN_OR_RETURN(h.bounds, ReadTimeArray(*v, "bounds"));
  TEMPUS_ASSIGN_OR_RETURN(h.counts, ReadCountArray(*v, "counts"));
  TEMPUS_ASSIGN_OR_RETURN(int64_t total, ReadInt(*v, "total"));
  h.total = static_cast<uint64_t>(total);
  if (!h.counts.empty() && h.bounds.size() != h.counts.size() + 1) {
    return Status::InvalidArgument("histogram \"" + key +
                                   "\" bounds/counts size mismatch");
  }
  return h;
}

/// The equi-depth histogram of `values`, which must be sorted ascending.
Histogram EquiDepthFromSorted(const std::vector<TimePoint>& values,
                              size_t buckets) {
  Histogram h;
  if (values.empty() || buckets == 0) return h;
  const size_t n = values.size();
  h.total = n;
  h.bounds.push_back(values.front());
  size_t start = 0;
  for (size_t k = 1; k <= buckets && start < n; ++k) {
    size_t end = k == buckets ? n : (n * k) / buckets;
    if (end <= start) continue;
    // Keep every copy of the bucket's last value inside it, so bucket
    // bounds never repeat and depth stays honest under duplicates.
    while (end < n && values[end] == values[end - 1]) ++end;
    h.counts.push_back(end - start);
    // Upper bound one past the bucket's max value (not the next bucket's
    // min): interpolation then never smears a duplicate-heavy bucket
    // across the gap to the next distinct value.
    h.bounds.push_back(values[end - 1] == kMaxTime ? kMaxTime
                                                   : values[end - 1] + 1);
    start = end;
  }
  return h;
}

}  // namespace

double Histogram::FractionBelow(TimePoint t) const {
  if (total == 0) return 0.0;
  double below = 0.0;
  for (size_t i = 0; i < counts.size(); ++i) {
    const TimePoint lo = bounds[i];
    const TimePoint hi = bounds[i + 1];
    if (t <= lo) break;
    if (lo == hi) {
      // Degenerate bucket: every value equals lo, and t > lo here.
      below += static_cast<double>(counts[i]);
      continue;
    }
    if (t > hi) {
      below += static_cast<double>(counts[i]);
      continue;
    }
    below += static_cast<double>(counts[i]) *
             (static_cast<double>(t - lo) / static_cast<double>(hi - lo));
  }
  return std::min(1.0, below / static_cast<double>(total));
}

double Histogram::FractionBetween(TimePoint lo, TimePoint hi) const {
  if (hi <= lo) return 0.0;
  return std::max(0.0, FractionBelow(hi) - FractionBelow(lo));
}

Histogram BuildEquiDepthHistogram(std::vector<TimePoint> values,
                                  size_t buckets) {
  std::sort(values.begin(), values.end());
  return EquiDepthFromSorted(values, buckets);
}

uint64_t ConcurrencyProfile::LiveAt(TimePoint t) const {
  if (at.empty()) return 0;
  auto it = std::upper_bound(at.begin(), at.end(), t);
  if (it == at.begin()) return 0;
  return live[static_cast<size_t>(it - at.begin()) - 1];
}

RelationStats IntervalStats::Scalars() const {
  RelationStats s;
  s.tuple_count = static_cast<size_t>(tuple_count);
  s.min_valid_from = min_valid_from;
  s.max_valid_to = max_valid_to;
  s.mean_duration = mean_duration;
  s.max_duration = max_duration;
  s.mean_interarrival = mean_interarrival;
  s.max_concurrency = static_cast<size_t>(max_concurrency);
  return s;
}

std::string IntervalStats::ToJson() const {
  std::string out = "{";
  out += "\"tuple_count\":" + std::to_string((unsigned long long)tuple_count);
  out += ",\"min_valid_from\":" + Int64ToJson(min_valid_from);
  out += ",\"max_valid_to\":" + Int64ToJson(max_valid_to);
  out += ",\"mean_duration\":" + DoubleToJson(mean_duration);
  out += ",\"max_duration\":" + Int64ToJson(max_duration);
  out += ",\"mean_interarrival\":" + DoubleToJson(mean_interarrival);
  out += ",\"max_concurrency\":" +
         std::to_string((unsigned long long)max_concurrency);
  out += std::string(",\"detailed\":") + (detailed ? "true" : "false");
  out += ",\"starts\":" + HistogramToJson(starts);
  out += ",\"ends\":" + HistogramToJson(ends);
  out += ",\"durations\":" + HistogramToJson(durations);
  out += ",\"profile\":" + ProfileToJson(profile);
  out += "}";
  return out;
}

Result<IntervalStats> IntervalStats::FromJson(const std::string& json) {
  JsonParser parser(json);
  TEMPUS_ASSIGN_OR_RETURN(JsonValue root, parser.Parse());
  if (root.kind != JsonValue::kObject) {
    return Status::InvalidArgument("stats JSON is not an object");
  }
  IntervalStats stats;
  TEMPUS_ASSIGN_OR_RETURN(int64_t count, ReadInt(root, "tuple_count"));
  stats.tuple_count = static_cast<uint64_t>(count);
  TEMPUS_ASSIGN_OR_RETURN(stats.min_valid_from,
                          ReadInt(root, "min_valid_from"));
  TEMPUS_ASSIGN_OR_RETURN(stats.max_valid_to, ReadInt(root, "max_valid_to"));
  TEMPUS_ASSIGN_OR_RETURN(stats.mean_duration,
                          ReadDouble(root, "mean_duration"));
  TEMPUS_ASSIGN_OR_RETURN(stats.max_duration, ReadInt(root, "max_duration"));
  TEMPUS_ASSIGN_OR_RETURN(stats.mean_interarrival,
                          ReadDouble(root, "mean_interarrival"));
  TEMPUS_ASSIGN_OR_RETURN(int64_t conc, ReadInt(root, "max_concurrency"));
  stats.max_concurrency = static_cast<uint64_t>(conc);
  const JsonValue* detailed = root.Find("detailed");
  if (detailed == nullptr || detailed->kind != JsonValue::kBool) {
    return Status::InvalidArgument("stats JSON missing \"detailed\"");
  }
  stats.detailed = detailed->bool_v;
  TEMPUS_ASSIGN_OR_RETURN(stats.starts, ReadHistogram(root, "starts"));
  TEMPUS_ASSIGN_OR_RETURN(stats.ends, ReadHistogram(root, "ends"));
  TEMPUS_ASSIGN_OR_RETURN(stats.durations, ReadHistogram(root, "durations"));
  const JsonValue* profile = root.Find("profile");
  if (profile == nullptr || profile->kind != JsonValue::kObject) {
    return Status::InvalidArgument("stats JSON missing \"profile\"");
  }
  TEMPUS_ASSIGN_OR_RETURN(stats.profile.at, ReadTimeArray(*profile, "at"));
  TEMPUS_ASSIGN_OR_RETURN(stats.profile.live,
                          ReadCountArray(*profile, "live"));
  TEMPUS_ASSIGN_OR_RETURN(stats.profile.mean_live,
                          ReadDouble(*profile, "mean_live"));
  TEMPUS_ASSIGN_OR_RETURN(int64_t max_live, ReadInt(*profile, "max_live"));
  stats.profile.max_live = static_cast<uint64_t>(max_live);
  if (stats.profile.at.size() != stats.profile.live.size()) {
    return Status::InvalidArgument("profile at/live size mismatch");
  }
  return stats;
}

IntervalStats CoarseStats(const RelationStats& scalars) {
  IntervalStats stats;
  stats.tuple_count = scalars.tuple_count;
  stats.min_valid_from = scalars.min_valid_from;
  stats.max_valid_to = scalars.max_valid_to;
  stats.mean_duration = scalars.mean_duration;
  stats.max_duration = scalars.max_duration;
  stats.mean_interarrival = scalars.mean_interarrival;
  stats.max_concurrency = scalars.max_concurrency;
  stats.detailed = false;
  return stats;
}

Result<IntervalStats> BuildIntervalStats(const TemporalRelation& relation,
                                         const RelationStats& scalars,
                                         const EndpointIndex& index,
                                         size_t buckets) {
  TEMPUS_FAULT_POINT("stats.build");
  if (!relation.schema().has_lifespan()) {
    return Status::FailedPrecondition("stats require a temporal schema: " +
                                      relation.schema().ToString());
  }
  IntervalStats stats = CoarseStats(scalars);
  stats.detailed = true;
  const size_t n = relation.size();
  if (n == 0) return stats;

  // The index orders both endpoint columns; only the durations still need
  // a sort of their own.
  const EndpointColumns columns = EndpointColumns::Of(relation);
  std::vector<TimePoint> starts(n), ends(n), durations(n);
  for (size_t k = 0; k < n; ++k) {
    starts[k] = columns.starts[index.by_start()[k]];
    ends[k] = columns.ends[index.by_end()[k]];
    durations[k] = columns.ends[k] - columns.starts[k];
  }
  stats.starts = EquiDepthFromSorted(starts, buckets);
  stats.ends = EquiDepthFromSorted(ends, buckets);
  stats.durations = BuildEquiDepthHistogram(std::move(durations), buckets);

  // Sweep the merged endpoints: +1 at each ValidFrom, -1 at each ValidTo,
  // one change point per distinct time.
  std::vector<TimePoint> change_at;
  std::vector<uint64_t> change_live;
  int64_t live = 0;
  uint64_t max_live = 0;
  double weighted = 0.0;
  size_t next_start = 0;
  size_t next_end = 0;
  while (next_end < n) {
    // A start still ahead has its own end ahead too, so next_end < n.
    const TimePoint t = next_start < n
                            ? std::min(starts[next_start], ends[next_end])
                            : ends[next_end];
    while (next_end < n && ends[next_end] == t) {
      --live;
      ++next_end;
    }
    while (next_start < n && starts[next_start] == t) {
      ++live;
      ++next_start;
    }
    if (!change_at.empty()) {
      weighted += static_cast<double>(change_live.back()) *
                  static_cast<double>(t - change_at.back());
    }
    change_at.push_back(t);
    change_live.push_back(static_cast<uint64_t>(live));
    max_live = std::max(max_live, static_cast<uint64_t>(live));
  }
  const TimePoint span = change_at.back() - change_at.front();
  stats.profile.mean_live =
      span > 0 ? weighted / static_cast<double>(span) : 0.0;
  stats.profile.max_live = max_live;
  if (change_at.size() <= kMaxProfileSamples) {
    stats.profile.at = std::move(change_at);
    stats.profile.live = std::move(change_live);
  } else {
    stats.profile.at.reserve(kMaxProfileSamples);
    stats.profile.live.reserve(kMaxProfileSamples);
    const size_t m = change_at.size();
    for (size_t s = 0; s < kMaxProfileSamples; ++s) {
      const size_t idx = s * (m - 1) / (kMaxProfileSamples - 1);
      if (!stats.profile.at.empty() && stats.profile.at.back() ==
                                           change_at[idx]) {
        continue;
      }
      stats.profile.at.push_back(change_at[idx]);
      stats.profile.live.push_back(change_live[idx]);
    }
  }
  return stats;
}

}  // namespace tempus

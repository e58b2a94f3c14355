// Executable walk-throughs of the paper's worked examples:
//   Figure 5 — Contain-join with both inputs sorted on TS ascending;
//   Figure 6 — Contain-semijoin with X on TS and Y on TE ascending
//              (the two-buffer algorithm; the text notes the workspace is
//              <x1, y2> then <x2, y4> as the scan advances);
//   Figure 7 — Contained-semijoin(X,X): x1..x3 replace the state tuple in
//              turn, x4 is emitted as contained in x3.
// The unit tests assert these behaviors; this binary prints them.

#include "bench_util.h"
#include "join/contain_join.h"
#include "join/containment_semijoin.h"
#include "join/self_semijoin.h"

namespace tempus {
namespace bench {

TemporalRelation Make(const char* name,
                      std::vector<std::pair<TimePoint, TimePoint>> spans) {
  TemporalRelation rel(name, Schema::Canonical("S", ValueType::kInt64, "V",
                                               ValueType::kInt64));
  for (size_t i = 0; i < spans.size(); ++i) {
    CheckOk(rel.AppendRow(Value::Int(static_cast<int64_t>(i + 1)),
                          Value::Int(0), spans[i].first, spans[i].second),
            "append");
  }
  return rel;
}

void PrintRelation(const TemporalRelation& rel) {
  std::printf("%s", rel.ToString(100).c_str());
}

void Figure5() {
  std::printf("--- Figure 5: Contain-join, X and Y sorted on TS^ ---\n");
  const TemporalRelation x =
      Make("X", {{0, 12}, {1, 7}, {2, 15}, {5, 9}, {10, 22}});
  const TemporalRelation y =
      Make("Y", {{1, 2}, {3, 6}, {4, 14}, {6, 8}, {11, 12}});
  PrintRelation(x);
  PrintRelation(y);
  std::unique_ptr<TupleStream> join = ValueOrDie(
      MakeContainJoin(VectorStream::Scan(x), VectorStream::Scan(y), {}),
      "contain join");
  CheckOk(join->Open(), "open");
  Tuple t;
  std::printf("emitted (x contains y):\n");
  while (ValueOrDie(join->Next(&t), "next")) {
    std::printf("  x=[%lld,%lld) contains y=[%lld,%lld)   state=%zu\n",
                static_cast<long long>(t[2].time_value()),
                static_cast<long long>(t[3].time_value()),
                static_cast<long long>(t[6].time_value()),
                static_cast<long long>(t[7].time_value()),
                join->metrics().workspace_tuples);
  }
  std::printf("metrics: %s\n\n", join->metrics().ToString().c_str());
}

void Figure6() {
  std::printf(
      "--- Figure 6: Contain-semijoin(X,Y), X on TS^, Y on TE^ ---\n");
  TemporalRelation x = Make("X", {{0, 12}, {3, 30}, {6, 9}, {10, 25}});
  TemporalRelation y =
      Make("Y", {{1, 2}, {4, 8}, {5, 20}, {11, 24}, {28, 29}});
  y.SortBy(ValueOrDie(kByValidToAsc.ToSortSpec(y.schema()), "spec"));
  PrintRelation(x);
  PrintRelation(y);
  TemporalSemijoinOptions options;
  options.left_order = kByValidFromAsc;
  options.right_order = kByValidToAsc;
  std::unique_ptr<TupleStream> semi = ValueOrDie(
      MakeContainSemijoin(VectorStream::Scan(x), VectorStream::Scan(y),
                          options),
      "contain semijoin");
  CheckOk(semi->Open(), "open");
  Tuple t;
  std::printf("emitted X tuples (lifespan contains some Y lifespan):\n");
  while (ValueOrDie(semi->Next(&t), "next")) {
    std::printf("  x%lld = [%lld,%lld)\n",
                static_cast<long long>(t[0].int_value()),
                static_cast<long long>(t[2].time_value()),
                static_cast<long long>(t[3].time_value()));
  }
  std::printf("metrics: %s   <- workspace never exceeds the two buffers\n\n",
              semi->metrics().ToString().c_str());
}

void Figure7() {
  std::printf(
      "--- Figure 7: Contained-semijoin(X,X), X sorted (TS^, TE^) ---\n");
  const TemporalRelation x =
      Make("X", {{0, 6}, {1, 9}, {2, 14}, {3, 10}});
  PrintRelation(x);
  SelfSemijoinOptions options;
  std::unique_ptr<TupleStream> semi = ValueOrDie(
      MakeSelfContainedSemijoin(VectorStream::Scan(x), options),
      "self semijoin");
  CheckOk(semi->Open(), "open");
  Tuple t;
  std::printf("emitted (contained in an earlier state tuple):\n");
  while (ValueOrDie(semi->Next(&t), "next")) {
    std::printf("  x%lld = [%lld,%lld)\n",
                static_cast<long long>(t[0].int_value()),
                static_cast<long long>(t[2].time_value()),
                static_cast<long long>(t[3].time_value()));
  }
  std::printf(
      "metrics: %s   <- \"the maximum number of state tuples remains at "
      "most one\"\n",
      semi->metrics().ToString().c_str());
}

}  // namespace bench
}  // namespace tempus

int main() {
  tempus::bench::Banner("FIGURES 5-7 — the paper's worked examples",
                        "Literal example data from the algorithm "
                        "walk-throughs of Section 4.2.");
  tempus::bench::Figure5();
  tempus::bench::Figure6();
  tempus::bench::Figure7();
  return 0;
}

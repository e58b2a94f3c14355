// serve: a TqlServer on loopback driven by two TqlClient connections in a
// closed loop. The only workload that goes through the server (admission,
// framing, send) and through the CSV result encoding; `load` puts writes
// next to the reads.

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>

#include "harness.h"
#include "server/client.h"
#include "server/server.h"

namespace tb {
namespace {

using tempus::Result;
using tempus::Status;

constexpr size_t kCallers = 2;

class ServeWorkload : public Workload {
 public:
  ~ServeWorkload() override { Teardown(); }

  std::vector<std::string> Classes() const override {
    std::vector<std::string> names;
    for (const QueryClass& q : queries_) names.push_back(q.name);
    names.push_back("load");
    return names;
  }
  size_t Callers() const override { return kCallers; }

  Status Setup(const Config& config) override {
    engine_ = std::make_unique<tempus::Engine>();
    TEMPUS_RETURN_IF_ERROR(RegisterEvents(
        engine_.get(), "Events", config.Size(50000, 4000),
        SubSeed(config.seed, 1)));
    TEMPUS_RETURN_IF_ERROR(RegisterFaculty(
        engine_.get(), config.Size(2000, 200), SubSeed(config.seed, 2)));
    for (const char* name : {"Events", "Faculty"}) {
      TEMPUS_RETURN_IF_ERROR(engine_->AnalyzeRelation(name).status());
    }

    // The CSV each `load` operation reads back.
    load_rows_ = config.Size(20000, 1000);
    load_path_ = config.workdir + "/serve_load_" + std::to_string(getpid()) + ".csv";
    {
      tempus::Engine scratch;
      TEMPUS_RETURN_IF_ERROR(RegisterEvents(&scratch, "Load", load_rows_,
                                            SubSeed(config.seed, 3)));
      TEMPUS_RETURN_IF_ERROR(scratch.SaveCsv("Load", load_path_));
    }

    server_ = std::make_unique<tempus::TqlServer>(engine_.get(),
                                                  tempus::ServerOptions{});
    TEMPUS_RETURN_IF_ERROR(server_->Start());
    for (size_t c = 0; c < kCallers; ++c) {
      TEMPUS_ASSIGN_OR_RETURN(
          tempus::TqlClient client,
          tempus::TqlClient::Connect("127.0.0.1", server_->port()));
      clients_.push_back(std::move(client));
    }
    return Status::Ok();
  }

  void Teardown() override {
    clients_.clear();
    if (server_ != nullptr) server_->Shutdown();
    server_.reset();
    engine_.reset();
    if (!load_path_.empty()) std::remove(load_path_.c_str());
  }

  Result<size_t> RunOnce(size_t cls, size_t caller) override {
    tempus::TqlClient& client = clients_[caller];
    tempus::QueryResponse response;
    if (cls < queries_.size()) {
      TEMPUS_ASSIGN_OR_RETURN(response, client.Query(queries_[cls].tql));
    } else {
      TEMPUS_ASSIGN_OR_RETURN(response, Load(&client, LoadName(caller)));
      // "analyzed <name>: <n> tuples, ...": every row of the file arrived.
      const size_t colon = response.csv.find(": ");
      if (colon == std::string::npos ||
          std::strtoull(response.csv.c_str() + colon + 2, nullptr, 10) !=
              load_rows_) {
        return Status::Internal("unexpected analyze reply: " + response.csv);
      }
    }
    const size_t lines =
        std::count(response.csv.begin(), response.csv.end(), '\n');
    return lines == 0 ? 0 : lines - 1;  // Minus the header line.
  }

  Result<Digest> MeasuredDigest(size_t cls) override {
    tempus::QueryResponse response;
    if (cls < queries_.size()) {
      TEMPUS_ASSIGN_OR_RETURN(response, clients_[0].Query(queries_[cls].tql));
    } else {
      TEMPUS_ASSIGN_OR_RETURN(response, Load(&clients_[0], LoadName(0)));
    }
    TEMPUS_ASSIGN_OR_RETURN(tempus::TemporalRelation relation,
                            response.ToRelation());
    return DigestOf(relation);
  }

  Result<Digest> ReferenceDigest(size_t cls) override {
    if (cls < queries_.size()) {
      return DigestOfQuery(*engine_, queries_[cls].tql, ReferenceOptions());
    }
    // The in-process load path, under the name the measured path used.
    const std::string name = LoadName(0);
    TEMPUS_RETURN_IF_ERROR(engine_->LoadCsv(name, load_path_));
    Result<Digest> digest =
        DigestOfQuery(*engine_, "analyze " + name, ReferenceOptions());
    TEMPUS_RETURN_IF_ERROR(engine_->DropRelation(name));
    return digest;
  }

  uint64_t ExtraFailures() const override {
    const tempus::ServerCounters& c = server_->counters();
    return c.queries_rejected.load() + c.sessions_rejected.load() +
           c.ledger_violations.load();
  }

  Status TraceOnce(size_t cls, Tracer* tracer, uint64_t query,
                   LayerSamples* layers) override {
    tempus::TqlClient& client = clients_[0];
    const std::string name = Classes()[cls];
    const int root = tracer->Begin("op." + name, -1, query);
    if (cls < queries_.size()) {
      int span = tracer->Begin("server.roundtrip", root, query);
      Result<tempus::QueryResponse> response =
          client.Query(queries_[cls].tql);
      const double roundtrip_ms = tracer->End(span);
      TEMPUS_RETURN_IF_ERROR(response.status());
      // The same query decomposed in-process: what the server does before
      // it sends, so the rest of the round trip is the wire.
      Result<QueryLayers> q = TraceQuery(*engine_, queries_[cls].tql, true,
                                         tracer, root, query);
      tracer->End(root);
      TEMPUS_RETURN_IF_ERROR(q.status());
      AddQueryLayers(name, *q, layers);
      layers->Add("trace.traced_ms." + name, roundtrip_ms);
      layers->Add("server.roundtrip_ms." + name, roundtrip_ms);
      layers->Add("server.wire_ms." + name,
                  roundtrip_ms - q->parse_ms - q->plan_ms - q->execute_ms -
                      q->encode_ms);
      return Status::Ok();
    }
    int span = tracer->Begin("server.load", root, query);
    Result<tempus::QueryResponse> loaded = Load(&client, LoadName(0));
    const double roundtrip_ms = tracer->End(span);
    layers->Add("trace.traced_ms.load", roundtrip_ms);
    layers->Add("server.roundtrip_ms.load", roundtrip_ms);
    TEMPUS_RETURN_IF_ERROR(loaded.status());
    // In-process: read the CSV, analyze it, drop it.
    const std::string traced = "LoadTraced";
    span = tracer->Begin("relation.load_csv", root, query);
    Status status = engine_->LoadCsv(traced, load_path_);
    layers->Add("relation.load_csv_ms.load", tracer->End(span));
    TEMPUS_RETURN_IF_ERROR(status);
    span = tracer->Begin("stats.analyze", root, query);
    status = engine_->AnalyzeRelation(traced).status();
    layers->Add("stats.analyze_ms.load", tracer->End(span));
    TEMPUS_RETURN_IF_ERROR(status);
    TEMPUS_RETURN_IF_ERROR(engine_->DropRelation(traced));
    tracer->End(root);
    return Status::Ok();
  }

  Status TraceWorkload(Tracer* tracer, LayerSamples* layers) override {
    TEMPUS_RETURN_IF_ERROR(
        TraceRelationStats(*engine_, {"Events", "Faculty"}, tracer, layers));
    const tempus::ServerCounters& c = server_->counters();
    layers->Add("server.bytes_out", static_cast<double>(c.bytes_out.load()));
    layers->Add("server.rejected",
                static_cast<double>(c.queries_rejected.load() +
                                    c.sessions_rejected.load()));
    layers->Add("server.ledger_violations",
                static_cast<double>(c.ledger_violations.load()));
    return Status::Ok();
  }

  void PrintFindings(const LayerSamples& layers) const override {
    for (const QueryClass& q : queries_) {
      const std::string& c = q.name;
      const double encode = layers.MedianOf("relation.encode_ms." + c);
      const double exec = layers.MedianOf("exec.execute_ms." + c);
      std::printf(
          "finding serve.encode_vs_execute.%s encode %.3f ms (%.0f bytes) vs "
          "execute %.3f ms vs plan %.3f ms, wire %.3f ms of a %.3f ms round "
          "trip (%s)\n",
          c.c_str(), encode, layers.MedianOf("relation.encode_bytes." + c),
          exec, layers.MedianOf("plan.plan_ms." + c),
          layers.MedianOf("server.wire_ms." + c),
          layers.MedianOf("server.roundtrip_ms." + c),
          encode > exec ? "encoding outweighs execution"
                        : "execution outweighs encoding");
    }
  }

 private:
  static std::string LoadName(size_t caller) {
    return "Load" + std::to_string(caller);
  }

  /// One `load` operation: LoadCsv, analyze, DropRelation. Returns the
  /// analyze statement's response.
  Result<tempus::QueryResponse> Load(tempus::TqlClient* client,
                                     const std::string& name) {
    TEMPUS_RETURN_IF_ERROR(client->LoadCsv(name, load_path_));
    Result<tempus::QueryResponse> analyzed = client->Query("analyze " + name);
    TEMPUS_RETURN_IF_ERROR(client->DropRelation(name));
    return analyzed;
  }

  const std::vector<QueryClass> queries_ = {
      {"point",
       "range of e is Events retrieve (e.S, e.V) where e.V < 4"},
      {"join",
       "range of e is Events range of f is Faculty retrieve (e.S, f.Name) "
       "where e.V < 10 and f.Rank = \"Full\" and e overlap f"},
      {"bulk",
       "range of e is Events retrieve (e.S, e.V, e.ValidFrom, e.ValidTo) "
       "where e.V < 500"},
  };

  std::unique_ptr<tempus::Engine> engine_;
  std::unique_ptr<tempus::TqlServer> server_;
  std::vector<tempus::TqlClient> clients_;
  std::string load_path_;
  size_t load_rows_ = 0;
};

}  // namespace

std::unique_ptr<Workload> MakeServeWorkload() {
  return std::make_unique<ServeWorkload>();
}

}  // namespace tb

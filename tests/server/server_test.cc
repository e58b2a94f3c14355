// End-to-end tests for the TQL network service (src/server/): wire
// round-trips, randomized concurrent-session equivalence against
// sequential in-process execution (byte-identical CSV), deadline expiry
// through the cooperative cancellation hook, admission-control overload
// rejection, malformed-frame handling, catalog load/drop racing running
// queries, and graceful shutdown. Built in the TSan tree as the
// concurrency check (ROADMAP tier 1).

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/cancellation.h"
#include "common/random.h"
#include "datagen/faculty_gen.h"
#include "datagen/interval_gen.h"
#include "exec/engine.h"
#include "relation/csv.h"
#include "server/client.h"
#include "server/server.h"
#include "testing/test_util.h"

#include "gtest/gtest.h"

namespace tempus {
namespace {

// Section-5-flavoured mixed workload over the demo catalog. Every query
// is deterministic, so sequential in-process execution is the oracle.
const char* kWorkload[] = {
    "range of e is Events retrieve (e.S, e.V) where e.V < 100",
    "range of e is Events retrieve unique (e.S) where e.V >= 900",
    "range of e1 is Events range of e2 is Events "
    "retrieve (e1.S, e2.S) where e1.S = e2.S and e1.V < e2.V",
    "range of f is Faculty retrieve (f.Name, f.Rank) "
    "where f.Rank = \"Full\"",
    "range of f1 is Faculty range of f2 is Faculty "
    "retrieve (f1.Name) where f1.Name = f2.Name "
    "and f1.Rank = \"Assistant\" and f2.Rank = \"Full\" "
    "and f1 before f2",
    "range of e is Events retrieve (e.S, e.V)",
};
constexpr size_t kWorkloadSize = sizeof(kWorkload) / sizeof(kWorkload[0]);

// A quadratic inequality join — slow enough that a millisecond deadline
// always expires mid-flight.
const char* kSlowQuery =
    "range of a is Big range of b is Big "
    "retrieve (a.S, b.S) where a.V != b.V";

Engine MakeTestEngine() {
  Engine engine;
  IntervalWorkloadConfig events;
  events.count = 1000;
  events.seed = 11;
  TemporalRelation events_rel =
      GenerateIntervalRelation("Events", events).value();
  TEMPUS_EXPECT_OK(engine.mutable_catalog()->Register(std::move(events_rel)));

  FacultyWorkloadConfig faculty;
  faculty.faculty_count = 200;
  faculty.seed = 12;
  TemporalRelation faculty_rel =
      GenerateFaculty("Faculty", faculty).value();
  TEMPUS_EXPECT_OK(
      engine.mutable_catalog()->Register(std::move(faculty_rel)));

  IntervalWorkloadConfig big;
  big.count = 4000;
  big.seed = 13;
  big.value_count = 1 << 20;
  TemporalRelation big_rel = GenerateIntervalRelation("Big", big).value();
  TEMPUS_EXPECT_OK(engine.mutable_catalog()->Register(std::move(big_rel)));
  return engine;
}

// The oracle: run sequentially in-process and serialize exactly the way
// the server does.
std::string ExpectedCsv(const Engine& engine, const std::string& tql) {
  Result<QueryRun> run = engine.RunQuery(tql);
  EXPECT_TRUE(run.ok()) << run.status().ToString();
  TEMPUS_EXPECT_OK(run->status);
  std::ostringstream out;
  TEMPUS_EXPECT_OK(WriteCsv(run->result, &out));
  return out.str();
}

class ServerTest : public ::testing::Test {
 protected:
  void StartServer(ServerOptions options) {
    engine_ = MakeTestEngine();
    server_ = std::make_unique<TqlServer>(&engine_, options);
    TEMPUS_ASSERT_OK(server_->Start());
  }

  void TearDown() override {
    if (server_ != nullptr) server_->Shutdown();
  }

  TqlClient MustConnect() {
    Result<TqlClient> client =
        TqlClient::Connect("127.0.0.1", server_->port());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  Engine engine_;
  std::unique_ptr<TqlServer> server_;
};

TEST_F(ServerTest, RoundTripMatchesLocalExecution) {
  StartServer({});
  TqlClient client = MustConnect();
  for (size_t i = 0; i < kWorkloadSize; ++i) {
    Result<QueryResponse> response = client.Query(kWorkload[i]);
    ASSERT_TRUE(response.ok()) << response.status().ToString();
    EXPECT_EQ(response->csv, ExpectedCsv(engine_, kWorkload[i]))
        << "query " << i;
    EXPECT_FALSE(response->schema.empty());
    EXPECT_NE(response->metrics_json.find("\"metrics\""), std::string::npos);
    EXPECT_NE(response->metrics_json.find("\"plan\""), std::string::npos);
    EXPECT_NE(response->metrics_json.find("\"optimizer\":{\"mode\":"),
              std::string::npos);
    // The CSV parses back into a relation with the same cardinality.
    Result<TemporalRelation> parsed = response->ToRelation();
    ASSERT_TRUE(parsed.ok()) << parsed.status().ToString();
    Result<QueryRun> local = engine_.RunQuery(kWorkload[i]);
    ASSERT_TRUE(local.ok());
    EXPECT_EQ(parsed->size(), local->result.size());
  }
}

TEST_F(ServerTest, ExplainStatementsServeThePlanText) {
  StartServer({});
  TqlClient client = MustConnect();
  Result<QueryResponse> response =
      client.Query(std::string("explain ") + kWorkload[0]);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  EXPECT_NE(response->csv.find("Scan"), std::string::npos)
      << response->csv;
}

TEST_F(ServerTest, ParseErrorsComeBackInBand) {
  StartServer({});
  TqlClient client = MustConnect();
  Result<QueryResponse> bad = client.Query("retrieve retrieve retrieve");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  // The session survives an in-band error.
  Result<QueryResponse> good = client.Query(kWorkload[0]);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST_F(ServerTest, LexerRejectionsAreInBandToo) {
  StartServer({});
  TqlClient client = MustConnect();
  const std::string overflow =
      "range of e is Events retrieve (e.S) where e.V = " +
      std::string(64, '9');
  Result<QueryResponse> bad = client.Query(overflow);
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument);
  std::string with_nul = "range of e is Events";
  with_nul[6] = '\0';
  Result<QueryResponse> nul = client.Query(with_nul);
  ASSERT_FALSE(nul.ok());
  EXPECT_EQ(nul.status().code(), StatusCode::kInvalidArgument);
  Result<QueryResponse> good = client.Query(kWorkload[0]);
  EXPECT_TRUE(good.ok()) << good.status().ToString();
}

TEST_F(ServerTest, ConcurrentSessionsMatchSequentialByteForByte) {
  ServerOptions options;
  options.max_concurrent_queries = 8;
  options.admission_queue = 64;
  StartServer(options);

  // Oracle pass, strictly sequential, before any concurrency starts.
  std::vector<std::string> expected(kWorkloadSize);
  for (size_t i = 0; i < kWorkloadSize; ++i) {
    expected[i] = ExpectedCsv(engine_, kWorkload[i]);
  }

  constexpr size_t kClients = 8;
  constexpr size_t kQueriesPerClient = 12;
  std::vector<std::thread> clients;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&, c] {
      Result<TqlClient> client =
          TqlClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        failures.fetch_add(1);
        return;
      }
      Rng rng(0xC0FFEE + c);
      for (size_t q = 0; q < kQueriesPerClient; ++q) {
        const size_t pick = rng.NextBounded(kWorkloadSize);
        Result<QueryResponse> response = client->Query(kWorkload[pick]);
        if (!response.ok()) {
          failures.fetch_add(1);
          return;
        }
        if (response->csv != expected[pick]) mismatches.fetch_add(1);
      }
    });
  }
  for (std::thread& t : clients) t.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(server_->counters().queries_completed.load(),
            kClients * kQueriesPerClient);
  EXPECT_EQ(server_->counters().ledger_violations.load(), 0u);
  // Every planned query is attributed to exactly one optimizer mode.
  EXPECT_EQ(server_->counters().plans_cost_based.load() +
                server_->counters().plans_heuristic.load(),
            kClients * kQueriesPerClient);

  // Stats endpoint reflects the finished work.
  TqlClient stats_client = MustConnect();
  Result<std::string> stats = stats_client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  EXPECT_NE(stats->find("\"queries_completed\":96"), std::string::npos)
      << *stats;
  EXPECT_NE(stats->find("\"sessions\":["), std::string::npos);
}

TEST_F(ServerTest, DeadlineExpiryReturnsCancelledAndFreesTheSession) {
  StartServer({});
  TqlClient client = MustConnect();
  QueryCallOptions options;
  options.deadline_ms = 1;
  Result<QueryResponse> response = client.Query(kSlowQuery, options);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled)
      << response.status().ToString();
  EXPECT_NE(response.status().message().find("deadline"), std::string::npos)
      << response.status().ToString();

  // The admission slot was released and the session keeps serving.
  EXPECT_EQ(server_->active_queries(), 0u);
  Result<QueryResponse> good = client.Query(kWorkload[0]);
  EXPECT_TRUE(good.ok()) << good.status().ToString();

  // The cancelled plan's workspace accounting still satisfies the GC
  // ledger identity — nothing leaked when the pipeline unwound.
  EXPECT_EQ(server_->counters().queries_cancelled.load(), 1u);
  EXPECT_EQ(server_->counters().ledger_violations.load(), 0u);
}

TEST_F(ServerTest, ServerDefaultDeadlineAppliesWhenRequestHasNone) {
  ServerOptions options;
  options.default_deadline_ms = 1;
  StartServer(options);
  TqlClient client = MustConnect();
  Result<QueryResponse> response = client.Query(kSlowQuery);
  ASSERT_FALSE(response.ok());
  EXPECT_EQ(response.status().code(), StatusCode::kCancelled);
}

TEST_F(ServerTest, OverloadRejectsInsteadOfQueueingUnboundedly) {
  ServerOptions options;
  options.max_concurrent_queries = 1;
  options.admission_queue = 0;
  StartServer(options);

  TqlClient slow_client = MustConnect();
  std::thread slow([&] {
    QueryCallOptions slow_options;
    slow_options.deadline_ms = 3000;
    // Either outcome is fine; this query exists only to hold the slot.
    (void)slow_client.Query(kSlowQuery, slow_options);
  });
  // Wait until the slow query owns the only execution slot.
  while (server_->active_queries() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }

  TqlClient fast_client = MustConnect();
  Result<QueryResponse> rejected = fast_client.Query(kWorkload[0]);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable)
      << rejected.status().ToString();
  EXPECT_NE(rejected.status().message().find("REJECTED"), std::string::npos)
      << rejected.status().ToString();
  EXPECT_GE(server_->counters().queries_rejected.load(), 1u);

  slow.join();
  // Once the slot frees, the same session is served normally.
  Result<QueryResponse> accepted = fast_client.Query(kWorkload[0]);
  EXPECT_TRUE(accepted.ok()) << accepted.status().ToString();
}

TEST_F(ServerTest, SessionLimitTurnsAwayExtraConnections) {
  ServerOptions options;
  options.max_sessions = 1;
  StartServer(options);
  TqlClient first = MustConnect();
  Result<QueryResponse> ok = first.Query(kWorkload[0]);
  ASSERT_TRUE(ok.ok()) << ok.status().ToString();

  TqlClient second = MustConnect();
  Result<QueryResponse> rejected = second.Query(kWorkload[0]);
  ASSERT_FALSE(rejected.ok());
  EXPECT_EQ(rejected.status().code(), StatusCode::kUnavailable)
      << rejected.status().ToString();
  EXPECT_GE(server_->counters().sessions_rejected.load(), 1u);
}

TEST_F(ServerTest, MalformedFramesCloseOnlyTheOffendingSession) {
  StartServer({});
  // Raw socket speaking garbage: an oversized length prefix.
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(fd, 0);
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr), 1);
  ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)),
            0);
  const unsigned char oversized[] = {0xFF, 0xFF, 0xFF, 0xFF, 'Q'};
  ASSERT_EQ(::send(fd, oversized, sizeof(oversized), 0),
            static_cast<ssize_t>(sizeof(oversized)));
  // The server drops the connection; the read eventually returns 0/err.
  char buffer[64];
  while (::recv(fd, buffer, sizeof(buffer), 0) > 0) {
  }
  ::close(fd);

  // An unknown frame type is answered with an error, then closed.
  const int bad_fd = ::socket(AF_INET, SOCK_STREAM, 0);
  ASSERT_GE(bad_fd, 0);
  sockaddr_in bad_addr{};
  bad_addr.sin_family = AF_INET;
  bad_addr.sin_port = htons(server_->port());
  ASSERT_EQ(::inet_pton(AF_INET, "127.0.0.1", &bad_addr.sin_addr), 1);
  ASSERT_EQ(::connect(bad_fd, reinterpret_cast<sockaddr*>(&bad_addr),
                      sizeof(bad_addr)),
            0);
  const unsigned char junk[] = {0x00, 0x00, 0x00, 0x02, '?', '!'};
  ASSERT_EQ(::send(bad_fd, junk, sizeof(junk), 0),
            static_cast<ssize_t>(sizeof(junk)));
  char drain[256];
  while (::recv(bad_fd, drain, sizeof(drain), 0) > 0) {
  }
  ::close(bad_fd);

  // A well-behaved session is unaffected.
  TqlClient good = MustConnect();
  Result<QueryResponse> response = good.Query(kWorkload[0]);
  EXPECT_TRUE(response.ok()) << response.status().ToString();
}

TEST_F(ServerTest, CatalogLoadAndDropCannotCorruptRunningQueries) {
  ServerOptions options;
  options.max_concurrent_queries = 8;
  StartServer(options);
  const std::string expected = ExpectedCsv(engine_, kWorkload[2]);

  std::atomic<bool> stop{false};
  // Churn thread: register/drop a relation through the engine while
  // queries stream — snapshot isolation must keep results identical.
  std::thread churn([&] {
    IntervalWorkloadConfig config;
    config.count = 50;
    config.seed = 99;
    size_t round = 0;
    while (!stop.load()) {
      TemporalRelation rel =
          GenerateIntervalRelation("Churn", config).value();
      (void)engine_.mutable_catalog()->RegisterOrReplace(std::move(rel));
      if (++round % 2 == 0) (void)engine_.DropRelation("Churn");
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
  });

  constexpr size_t kClients = 4;
  std::vector<std::thread> clients;
  std::atomic<size_t> mismatches{0};
  std::atomic<size_t> hard_failures{0};
  for (size_t c = 0; c < kClients; ++c) {
    clients.emplace_back([&] {
      Result<TqlClient> client =
          TqlClient::Connect("127.0.0.1", server_->port());
      if (!client.ok()) {
        hard_failures.fetch_add(1);
        return;
      }
      for (size_t q = 0; q < 10; ++q) {
        Result<QueryResponse> response = client->Query(kWorkload[2]);
        if (!response.ok()) {
          hard_failures.fetch_add(1);
        } else if (response->csv != expected) {
          mismatches.fetch_add(1);
        }
        // Queries against the churning relation must either succeed or
        // fail cleanly with NotFound — never crash or corrupt.
        Result<QueryResponse> churny =
            client->Query("range of x is Churn retrieve (x.S)");
        if (!churny.ok() &&
            churny.status().code() != StatusCode::kNotFound) {
          hard_failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();
  stop.store(true);
  churn.join();
  EXPECT_EQ(hard_failures.load(), 0u);
  EXPECT_EQ(mismatches.load(), 0u);
  EXPECT_EQ(server_->counters().ledger_violations.load(), 0u);
}

TEST_F(ServerTest, RemoteLoadCsvAndDrop) {
  StartServer({});
  // Save a relation server-side, then load it back under a new name.
  const std::string path = ::testing::TempDir() + "server_test_events.csv";
  TEMPUS_ASSERT_OK(engine_.SaveCsv("Events", path));
  TqlClient client = MustConnect();
  TEMPUS_ASSERT_OK(client.LoadCsv("Events2", path));
  Result<QueryResponse> response =
      client.Query("range of e is Events2 retrieve (e.S, e.V)");
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  TEMPUS_ASSERT_OK(client.DropRelation("Events2"));
  Result<QueryResponse> gone =
      client.Query("range of e is Events2 retrieve (e.S)");
  ASSERT_FALSE(gone.ok());
  EXPECT_EQ(gone.status().code(), StatusCode::kNotFound);
  ::unlink(path.c_str());
}

// The unsigned counter `key` in the first JSON object following `after`.
uint64_t CounterAfter(const std::string& json, const std::string& after,
                      const std::string& key) {
  const size_t scope = json.find(after);
  EXPECT_NE(scope, std::string::npos) << after << " missing: " << json;
  if (scope == std::string::npos) return 0;
  const std::string needle = "\"" + key + "\":";
  const size_t at = json.find(needle, scope);
  EXPECT_NE(at, std::string::npos) << key << " missing: " << json;
  if (at == std::string::npos) return 0;
  return std::stoull(json.substr(at + needle.size()));
}

TEST_F(ServerTest, StatsTotalsCountBatchWork) {
  ServerOptions options;
  options.planner.batch_size = 64;
  StartServer(options);
  TqlClient client = MustConnect();
  Result<QueryResponse> response = client.Query(kWorkload[0]);
  ASSERT_TRUE(response.ok()) << response.status().ToString();
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // The cross-query totals and the session rollup sum the same fields as
  // each query's own metrics, the batch counters included.
  EXPECT_GT(CounterAfter(*stats, "\"totals\":", "batches"), 0u);
  EXPECT_GT(CounterAfter(*stats, "\"totals\":", "batch_rows"), 0u);
  EXPECT_GT(CounterAfter(*stats, "\"sessions\":", "batches"), 0u);
}

TEST_F(ServerTest, StatsListEachRelationsIndexAndOrders) {
  StartServer(ServerOptions());
  TqlClient client = MustConnect();
  Result<std::string> stats = client.Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  // Events has 1,000 rows: two 4-byte row ids each, and all four
  // canonical orders through its endpoint index.
  EXPECT_NE(stats->find("{\"name\":\"Events\",\"storage\":\"memory\","
                        "\"tuples\":1000,\"index_bytes\":8000,\"orders\":["
                        "\"ValidFrom^\",\"ValidFromv\",\"ValidTo^\","
                        "\"ValidTov\"]}"),
            std::string::npos)
      << *stats;
}

TEST_F(ServerTest, GracefulShutdownDrainsAndJoinsEverything) {
  ServerOptions options;
  options.shutdown_cancel_after_ms = 50;
  StartServer(options);
  TqlClient client = MustConnect();
  std::thread in_flight([&] {
    QueryCallOptions slow_options;
    slow_options.deadline_ms = 10000;
    (void)client.Query(kSlowQuery, slow_options);
  });
  while (server_->active_queries() == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  server_->Shutdown();
  in_flight.join();
  EXPECT_EQ(server_->active_sessions(), 0u);
  EXPECT_EQ(server_->active_queries(), 0u);
  // Idempotent.
  server_->Shutdown();
}

TEST(CancellationTokenTest, CancelFlipsCheckToCancelled) {
  CancellationToken token;
  TEMPUS_ASSERT_OK(token.Check());
  EXPECT_FALSE(token.cancelled());
  token.Cancel("client went away");
  EXPECT_TRUE(token.cancelled());
  Status status = token.Check();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("client went away"), std::string::npos);
}

TEST(CancellationTokenTest, DeadlineExpiresViaCheckNow) {
  CancellationToken token;
  token.SetDeadlineAfter(std::chrono::milliseconds(1));
  TEMPUS_ASSERT_OK(token.CheckNow());
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  Status status = token.CheckNow();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("deadline"), std::string::npos);
}

TEST(CancellationTokenTest, StridedCheckEventuallySeesTheDeadline) {
  CancellationToken token;
  token.SetDeadlineAfter(std::chrono::milliseconds(1));
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  // Check() samples the clock every kClockStride calls; a few hundred
  // calls must observe expiry.
  Status status = Status::Ok();
  for (int i = 0; i < 256 && status.ok(); ++i) status = token.Check();
  ASSERT_FALSE(status.ok());
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
}

TEST(CancellationTokenTest, ConcurrentCancelAndCheckIsSafe) {
  CancellationToken token;
  std::atomic<bool> done{false};
  std::thread checker([&] {
    while (!done.load()) {
      if (!token.Check().ok()) done.store(true);
    }
  });
  std::thread canceller([&] { token.Cancel("race"); });
  canceller.join();
  checker.join();
  Status status = token.Check();
  EXPECT_EQ(status.code(), StatusCode::kCancelled);
  EXPECT_NE(status.message().find("race"), std::string::npos);
}

TEST(CancellationPlanTest, PreCancelledTokenStopsExecutionImmediately) {
  Engine engine = MakeTestEngine();
  CancellationToken token;
  token.Cancel("pre-cancelled");
  PlannerOptions options;
  options.cancel = &token;
  Result<QueryRun> run = engine.RunQuery(kWorkload[0], options);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  EXPECT_EQ(run->status.code(), StatusCode::kCancelled)
      << run->status.ToString();
}

TEST(CancellationPlanTest, UntokenedPlansStillRun) {
  Engine engine = MakeTestEngine();
  Result<QueryRun> run = engine.RunQuery(kWorkload[0]);
  ASSERT_TRUE(run.ok()) << run.status().ToString();
  TEMPUS_EXPECT_OK(run->status);
}

}  // namespace
}  // namespace tempus

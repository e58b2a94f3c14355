#ifndef TEMPUS_SERVER_SERVER_H_
#define TEMPUS_SERVER_SERVER_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <thread>

#include "common/cancellation.h"
#include "common/status.h"
#include "exec/engine.h"
#include "server/admission.h"
#include "server/protocol.h"
#include "stream/metrics.h"

namespace tempus {

/// Configuration for a TqlServer.
struct ServerOptions {
  /// Bind address; loopback by default (tests, benches, local tools).
  std::string host = "127.0.0.1";
  /// TCP port; 0 binds an ephemeral port (read it back via port()).
  uint16_t port = 0;
  /// Concurrent client connections; further connects are turned away
  /// with an Unavailable error frame.
  size_t max_sessions = 64;
  /// Queries executing at once across all sessions.
  size_t max_concurrent_queries = 4;
  /// Queries allowed to wait for an execution slot before admission
  /// rejects with Unavailable.
  size_t admission_queue = 8;
  /// Deadline applied to queries that do not carry one (0 = none).
  uint32_t default_deadline_ms = 0;
  /// Graceful shutdown drains in-flight queries for this long, then
  /// cancels their tokens so sessions unwind with Status::Cancelled.
  uint32_t shutdown_cancel_after_ms = 2000;
  /// Result CSV bytes per kRows frame.
  size_t row_batch_bytes = 64 * 1024;
  /// Planner options for every query.
  PlannerOptions planner;
};

/// Monotone server-wide counters, readable while the server runs. The
/// stats endpoint renders them next to MetricsToJson aggregates.
struct ServerCounters {
  std::atomic<uint64_t> sessions_opened{0};
  std::atomic<uint64_t> sessions_rejected{0};
  std::atomic<uint64_t> queries_accepted{0};
  std::atomic<uint64_t> queries_rejected{0};
  std::atomic<uint64_t> queries_completed{0};
  std::atomic<uint64_t> queries_cancelled{0};
  std::atomic<uint64_t> queries_failed{0};
  /// Queries planned by each optimizer mode (docs/OPTIMIZER.md); together
  /// they count every planned query, so the split shows whether clients
  /// are running with TEMPUS_OPTIMIZER=off.
  std::atomic<uint64_t> plans_cost_based{0};
  std::atomic<uint64_t> plans_heuristic{0};
  std::atomic<uint64_t> bytes_out{0};
  /// Cancelled/failed plans whose rolled-up metrics violated the GC
  /// ledger identity workspace_inserted == gc_discarded +
  /// workspace_tuples — always expected to stay 0; a nonzero value means
  /// an operator leaked workspace accounting on an unwound query.
  std::atomic<uint64_t> ledger_violations{0};
};

/// An embedded TCP service executing TQL over the wire protocol of
/// server/protocol.h (docs/SERVER.md): thread-per-connection sessions
/// over an accept loop, bounded admission, per-query deadlines with
/// cooperative cancellation through the stream Open()/Next() hook,
/// snapshot-consistent catalog reads, and graceful draining shutdown.
///
///   Engine engine;                       // populate catalog...
///   TqlServer server(&engine, {});      // port 0 = ephemeral
///   TEMPUS_RETURN_IF_ERROR(server.Start());
///   ... clients connect to server.port() ...
///   server.Shutdown();
class TqlServer {
 public:
  /// `engine` is not owned and must outlive the server.
  TqlServer(Engine* engine, ServerOptions options);

  /// Shuts down if still running.
  ~TqlServer();

  TqlServer(const TqlServer&) = delete;
  TqlServer& operator=(const TqlServer&) = delete;

  /// Binds, listens, and spawns the accept loop. Fails on socket errors
  /// (e.g. port in use).
  Status Start();

  /// Graceful shutdown: stops accepting, fails queued admissions,
  /// half-closes every session so no further requests are read, waits up
  /// to shutdown_cancel_after_ms for in-flight queries to drain, cancels
  /// the stragglers' tokens, and joins every thread. Idempotent.
  void Shutdown();

  /// The bound port (resolves option port 0 after Start()).
  uint16_t port() const { return port_; }

  const ServerCounters& counters() const { return counters_; }

  /// Sessions currently connected.
  size_t active_sessions() const;

  /// Queries currently holding an admission slot.
  size_t active_queries() const { return admission_.active(); }

  /// The stats endpoint's JSON: server counters, the server-wide
  /// MetricsToJson rollup of every finished query, one entry per
  /// registered relation (storage, tuples, endpoint-index bytes and the
  /// orders a scan delivers without a Sort), and one entry per live
  /// session with its own rollup.
  std::string StatsJson() const;

 private:
  struct Session {
    uint64_t id = 0;
    int fd = -1;
    std::thread thread;
    std::atomic<bool> finished{false};

    // Guards the fields below (the session thread updates them; the
    // stats endpoint and Shutdown() read/cancel from other threads).
    std::mutex mu;
    CancellationToken* active_token = nullptr;
    uint64_t queries = 0;
    OperatorMetrics totals;
  };

  void AcceptLoop();
  void SessionLoop(Session* session);

  /// Dispatches one request frame; a non-OK return closes the session
  /// (protocol violations), while per-query errors are reported in-band.
  Status HandleFrame(Session* session, const wire::Frame& frame);
  Status HandleQuery(Session* session, const wire::Frame& frame);
  Status HandleStats(Session* session);
  Status HandleLoadCsv(Session* session, const wire::Frame& frame);
  Status HandleDrop(Session* session, const wire::Frame& frame);

  /// WriteFrame + bytes_out accounting.
  Status Send(Session* session, wire::FrameType type, std::string_view body);

  /// Joins and forgets sessions whose loops have exited.
  void ReapFinishedSessions();

  Engine* const engine_;
  const ServerOptions options_;

  int listen_fd_ = -1;
  uint16_t port_ = 0;
  std::atomic<bool> running_{false};
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  mutable std::mutex sessions_mu_;
  std::list<std::unique_ptr<Session>> sessions_;
  uint64_t next_session_id_ = 1;

  AdmissionController admission_;
  ServerCounters counters_;

  mutable std::mutex totals_mu_;
  OperatorMetrics totals_;
};

}  // namespace tempus

#endif  // TEMPUS_SERVER_SERVER_H_

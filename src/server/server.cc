#include "server/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <sstream>

#include "buffer/buffer_manager.h"
#include "common/string_util.h"
#include "obs/metrics_json.h"
#include "relation/csv.h"

namespace tempus {

namespace {

/// Field-wise counter sum for cross-query aggregates.
void Accumulate(OperatorMetrics* total, const OperatorMetrics& m) {
  total->tuples_read_left += m.tuples_read_left;
  total->tuples_read_right += m.tuples_read_right;
  total->tuples_emitted += m.tuples_emitted;
  total->comparisons += m.comparisons;
  total->passes_left += m.passes_left;
  total->passes_right += m.passes_right;
  total->merge_comparisons += m.merge_comparisons;
  total->workspace_inserted += m.workspace_inserted;
  total->gc_discarded += m.gc_discarded;
  total->gc_checks += m.gc_checks;
  total->workspace_tuples += m.workspace_tuples;
  total->peak_workspace_tuples += m.peak_workspace_tuples;
}

/// The GC ledger identity every operator maintains (stream/metrics.h);
/// checked on every finished query, cancelled ones included.
bool LedgerHolds(const OperatorMetrics& m) {
  return m.workspace_inserted == m.gc_discarded + m.workspace_tuples;
}

}  // namespace

TqlServer::TqlServer(Engine* engine, ServerOptions options)
    : engine_(engine),
      options_(std::move(options)),
      admission_(options_.max_concurrent_queries, options_.admission_queue) {}

TqlServer::~TqlServer() { Shutdown(); }

Status TqlServer::Start() {
  if (running_.load()) {
    return Status::FailedPrecondition("server already started");
  }
  listen_fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  if (listen_fd_ < 0) {
    return Status::Internal(StrFormat("socket failed: %s",
                                      std::strerror(errno)));
  }
  const int one = 1;
  ::setsockopt(listen_fd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(options_.port);
  if (::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) != 1) {
    ::close(listen_fd_);
    listen_fd_ = -1;
    return Status::InvalidArgument("bad bind address: " + options_.host);
  }
  if (::bind(listen_fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) <
      0) {
    const Status status = Status::Unavailable(
        StrFormat("bind %s:%u failed: %s", options_.host.c_str(),
                  options_.port, std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  if (::listen(listen_fd_, 128) < 0) {
    const Status status = Status::Internal(StrFormat("listen failed: %s",
                                                     std::strerror(errno)));
    ::close(listen_fd_);
    listen_fd_ = -1;
    return status;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  ::getsockname(listen_fd_, reinterpret_cast<sockaddr*>(&bound), &bound_len);
  port_ = ntohs(bound.sin_port);
  stopping_.store(false);
  running_.store(true);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void TqlServer::Shutdown() {
  if (!running_.exchange(false)) return;
  stopping_.store(true);
  admission_.Shutdown();
  // Unblock accept(); the loop sees stopping_ and exits.
  ::shutdown(listen_fd_, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();

  // Half-close every session: the read side reports EOF, so each session
  // finishes the request it is serving and exits its loop; responses
  // still flow on the write side (that is the "drain").
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    for (const auto& session : sessions_) {
      ::shutdown(session->fd, SHUT_RD);
    }
  }
  const auto cancel_at =
      std::chrono::steady_clock::now() +
      std::chrono::milliseconds(options_.shutdown_cancel_after_ms);
  while (true) {
    bool all_finished = true;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const auto& session : sessions_) {
        if (!session->finished.load()) {
          all_finished = false;
          break;
        }
      }
    }
    if (all_finished) break;
    if (std::chrono::steady_clock::now() >= cancel_at) {
      // Drain window exhausted: cooperatively cancel whatever is still
      // executing; the Open()/Next() hook unwinds it with Cancelled.
      std::lock_guard<std::mutex> lock(sessions_mu_);
      for (const auto& session : sessions_) {
        std::lock_guard<std::mutex> session_lock(session->mu);
        if (session->active_token != nullptr) {
          session->active_token->Cancel("server shutting down");
        }
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (const auto& session : sessions_) {
    if (session->thread.joinable()) session->thread.join();
    ::close(session->fd);
  }
  sessions_.clear();
  ::close(listen_fd_);
  listen_fd_ = -1;
}

size_t TqlServer::active_sessions() const {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  size_t live = 0;
  for (const auto& session : sessions_) {
    if (!session->finished.load()) ++live;
  }
  return live;
}

void TqlServer::ReapFinishedSessions() {
  std::lock_guard<std::mutex> lock(sessions_mu_);
  for (auto it = sessions_.begin(); it != sessions_.end();) {
    if ((*it)->finished.load()) {
      if ((*it)->thread.joinable()) (*it)->thread.join();
      ::close((*it)->fd);
      it = sessions_.erase(it);
    } else {
      ++it;
    }
  }
}

void TqlServer::AcceptLoop() {
  while (!stopping_.load()) {
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR) continue;
      if (stopping_.load()) break;
      continue;  // Transient accept failure; keep serving.
    }
    if (stopping_.load()) {
      ::close(fd);
      break;
    }
    const int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    ReapFinishedSessions();
    if (active_sessions() >= options_.max_sessions) {
      counters_.sessions_rejected.fetch_add(1);
      (void)wire::WriteFrame(
          fd, wire::FrameType::kError,
          wire::EncodeError(Status::Unavailable(
              "REJECTED: session limit reached, retry later")));
      ::close(fd);
      continue;
    }
    counters_.sessions_opened.fetch_add(1);
    auto session = std::make_unique<Session>();
    Session* raw = session.get();
    raw->fd = fd;
    {
      std::lock_guard<std::mutex> lock(sessions_mu_);
      raw->id = next_session_id_++;
      sessions_.push_back(std::move(session));
    }
    raw->thread = std::thread([this, raw] { SessionLoop(raw); });
  }
}

void TqlServer::SessionLoop(Session* session) {
  while (!stopping_.load()) {
    wire::Frame frame;
    Result<bool> has = wire::ReadFrame(session->fd, &frame);
    if (!has.ok()) {
      // Malformed frame (oversized length, truncated payload): report if
      // the socket still works, then drop the connection — a server
      // cannot resynchronize an out-of-frame byte stream.
      (void)Send(session, wire::FrameType::kError,
                 wire::EncodeError(has.status()));
      break;
    }
    if (!*has) break;  // Client closed (or shutdown half-closed) cleanly.
    if (!HandleFrame(session, frame).ok()) break;
  }
  // Flush a FIN so the peer sees EOF immediately; the fd itself stays
  // open (only the owner closes it, at reap or shutdown, so the
  // descriptor cannot be reused while Shutdown() might still touch it).
  ::shutdown(session->fd, SHUT_RDWR);
  session->finished.store(true);
}

Status TqlServer::Send(Session* session, wire::FrameType type,
                       std::string_view body) {
  TEMPUS_RETURN_IF_ERROR(wire::WriteFrame(session->fd, type, body));
  counters_.bytes_out.fetch_add(body.size() + 5);
  return Status::Ok();
}

Status TqlServer::HandleFrame(Session* session, const wire::Frame& frame) {
  switch (frame.type) {
    case wire::FrameType::kQuery:
      return HandleQuery(session, frame);
    case wire::FrameType::kStats:
      return HandleStats(session);
    case wire::FrameType::kLoadCsv:
      return HandleLoadCsv(session, frame);
    case wire::FrameType::kDropRel:
      return HandleDrop(session, frame);
    default: {
      const Status status = Status::InvalidArgument(StrFormat(
          "unexpected frame type 0x%02x", static_cast<unsigned>(frame.type)));
      (void)Send(session, wire::FrameType::kError,
                 wire::EncodeError(status));
      return status;  // Protocol violation: close the session.
    }
  }
}

Status TqlServer::HandleQuery(Session* session, const wire::Frame& frame) {
  Result<wire::QueryRequest> request = wire::DecodeQueryRequest(frame.body);
  if (!request.ok()) {
    (void)Send(session, wire::FrameType::kError,
               wire::EncodeError(request.status()));
    return request.status();  // Malformed body: close the session.
  }

  const Status admitted = admission_.Acquire();
  if (!admitted.ok()) {
    counters_.queries_rejected.fetch_add(1);
    return Send(session, wire::FrameType::kError,
                wire::EncodeError(Status::Unavailable(
                    "REJECTED: " + admitted.message())));
  }
  counters_.queries_accepted.fetch_add(1);

  CancellationToken token;
  const uint32_t deadline_ms = request->deadline_ms != 0
                                   ? request->deadline_ms
                                   : options_.default_deadline_ms;
  if (deadline_ms != 0) {
    token.SetDeadlineAfter(std::chrono::milliseconds(deadline_ms));
  }
  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->active_token = &token;
  }

  PlannerOptions planner_options = options_.planner;
  planner_options.cancel = &token;
  Result<QueryRun> run = engine_->RunQuery(request->tql, planner_options);

  {
    std::lock_guard<std::mutex> lock(session->mu);
    session->active_token = nullptr;
  }
  admission_.Release();

  if (!run.ok()) {  // Parse or plan error; the session stays usable.
    counters_.queries_failed.fetch_add(1);
    return Send(session, wire::FrameType::kError,
                wire::EncodeError(run.status()));
  }

  if (run->optimizer_mode == "cost-based") {
    counters_.plans_cost_based.fetch_add(1);
  } else if (!run->optimizer_mode.empty()) {
    counters_.plans_heuristic.fetch_add(1);
  }

  // Account the plan's work — cancelled queries included, which is
  // exactly when the ledger identity proves no workspace went missing.
  if (!LedgerHolds(run->metrics)) {
    counters_.ledger_violations.fetch_add(1);
  }
  {
    std::lock_guard<std::mutex> lock(session->mu);
    ++session->queries;
    Accumulate(&session->totals, run->metrics);
  }
  {
    std::lock_guard<std::mutex> lock(totals_mu_);
    Accumulate(&totals_, run->metrics);
  }

  if (!run->status.ok()) {
    if (run->status.code() == StatusCode::kCancelled) {
      counters_.queries_cancelled.fetch_add(1);
    } else {
      counters_.queries_failed.fetch_add(1);
    }
    return Send(session, wire::FrameType::kError,
                wire::EncodeError(run->status));
  }
  counters_.queries_completed.fetch_add(1);

  TEMPUS_RETURN_IF_ERROR(Send(session, wire::FrameType::kHeader,
                              run->result.name() + "\n" +
                                  run->result.schema().ToString()));
  std::ostringstream csv;
  TEMPUS_RETURN_IF_ERROR(WriteCsv(run->result, &csv));
  const std::string serialized = csv.str();
  for (size_t offset = 0; offset < serialized.size();
       offset += options_.row_batch_bytes) {
    TEMPUS_RETURN_IF_ERROR(
        Send(session, wire::FrameType::kRows,
             std::string_view(serialized)
                 .substr(offset, options_.row_batch_bytes)));
  }
  std::string report = "{\"metrics\":" + MetricsToJson(run->metrics) +
                       ",\"plan\":" + run->plan_json;
  if (!run->optimizer_mode.empty()) {
    report += ",\"optimizer\":{\"mode\":\"" + JsonEscape(run->optimizer_mode) +
              "\",\"rationale\":[";
    for (size_t i = 0; i < run->rationale.size(); ++i) {
      if (i > 0) report += ",";
      report += "\"" + JsonEscape(run->rationale[i]) + "\"";
    }
    report += "]}";
  }
  if (!run->analyze_report.empty()) {
    report += ",\"analyze\":\"" + JsonEscape(run->analyze_report) + "\"";
  }
  report += "}";
  TEMPUS_RETURN_IF_ERROR(Send(session, wire::FrameType::kMetrics, report));
  return Send(session, wire::FrameType::kDone, "");
}

Status TqlServer::HandleStats(Session* session) {
  TEMPUS_RETURN_IF_ERROR(
      Send(session, wire::FrameType::kStatsJson, StatsJson()));
  return Send(session, wire::FrameType::kDone, "");
}

Status TqlServer::HandleLoadCsv(Session* session, const wire::Frame& frame) {
  const size_t newline = frame.body.find('\n');
  if (newline == std::string::npos) {
    return Send(session, wire::FrameType::kError,
                wire::EncodeError(Status::InvalidArgument(
                    "load request must be \"name\\npath\"")));
  }
  const Status status = engine_->LoadCsv(frame.body.substr(0, newline),
                                         frame.body.substr(newline + 1));
  if (!status.ok()) {
    return Send(session, wire::FrameType::kError, wire::EncodeError(status));
  }
  return Send(session, wire::FrameType::kDone, "");
}

Status TqlServer::HandleDrop(Session* session, const wire::Frame& frame) {
  const Status status = engine_->DropRelation(frame.body);
  if (!status.ok()) {
    return Send(session, wire::FrameType::kError, wire::EncodeError(status));
  }
  return Send(session, wire::FrameType::kDone, "");
}

std::string TqlServer::StatsJson() const {
  const auto count = [](const std::atomic<uint64_t>& c) {
    return static_cast<unsigned long long>(c.load());
  };
  std::string out = StrFormat(
      "{\"server\":{\"sessions_opened\":%llu,\"sessions_rejected\":%llu,"
      "\"active_sessions\":%zu,\"queries_accepted\":%llu,"
      "\"queries_rejected\":%llu,\"queries_completed\":%llu,"
      "\"queries_cancelled\":%llu,\"queries_failed\":%llu,"
      "\"plans_cost_based\":%llu,\"plans_heuristic\":%llu,"
      "\"active_queries\":%zu,\"queued_queries\":%zu,\"bytes_out\":%llu,"
      "\"ledger_violations\":%llu}",
      count(counters_.sessions_opened), count(counters_.sessions_rejected),
      active_sessions(), count(counters_.queries_accepted),
      count(counters_.queries_rejected), count(counters_.queries_completed),
      count(counters_.queries_cancelled), count(counters_.queries_failed),
      count(counters_.plans_cost_based), count(counters_.plans_heuristic),
      admission_.active(), admission_.queued(), count(counters_.bytes_out),
      count(counters_.ledger_violations));
  {
    std::lock_guard<std::mutex> lock(totals_mu_);
    out += ",\"totals\":" + MetricsToJson(totals_);
  }
  out += ",\"buffer\":" + BufferManager::Global().Stats().ToJson();
  out += ",\"sessions\":[";
  {
    std::lock_guard<std::mutex> lock(sessions_mu_);
    bool first = true;
    for (const auto& session : sessions_) {
      if (session->finished.load()) continue;
      std::lock_guard<std::mutex> session_lock(session->mu);
      if (!first) out += ",";
      first = false;
      out += StrFormat("{\"id\":%llu,\"queries\":%llu,\"metrics\":",
                       static_cast<unsigned long long>(session->id),
                       static_cast<unsigned long long>(session->queries));
      out += MetricsToJson(session->totals);
      out += "}";
    }
  }
  out += "]}";
  return out;
}

}  // namespace tempus

#ifndef TEMPUS_SERVER_CLIENT_H_
#define TEMPUS_SERVER_CLIENT_H_

#include <cstdint>
#include <string>

#include "common/result.h"
#include "common/status.h"
#include "relation/temporal_relation.h"
#include "server/protocol.h"

namespace tempus {

/// A query's streamed response, reassembled client-side.
struct QueryResponse {
  std::string relation_name;
  /// Schema::ToString text from the header frame.
  std::string schema;
  /// The result's CSV serialization, byte for byte as the server sent it
  /// — the equivalence tests compare this against a local WriteCsv.
  std::string csv;
  /// {"metrics":{...},"plan":{...}[,"analyze":"..."]} JSON.
  std::string metrics_json;

  /// Parses `csv` back into a relation.
  Result<TemporalRelation> ToRelation() const;
};

/// Per-call query options.
struct QueryCallOptions {
  /// Per-query deadline in milliseconds; 0 defers to the server default.
  uint32_t deadline_ms = 0;
};

/// A blocking client for the TQL wire protocol (docs/SERVER.md). One
/// connection is one server session; queries on it run sequentially.
/// Movable, not copyable. Used by tests, tempusbench's serve workload,
/// and the tempus_client CLI.
class TqlClient {
 public:
  /// Connects to a numeric IPv4 address, e.g. {"127.0.0.1", port}.
  static Result<TqlClient> Connect(const std::string& host, uint16_t port);

  TqlClient(TqlClient&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  TqlClient& operator=(TqlClient&& other) noexcept;
  TqlClient(const TqlClient&) = delete;
  TqlClient& operator=(const TqlClient&) = delete;
  ~TqlClient() { Close(); }

  /// Executes one TQL statement and reassembles the response. Server-side
  /// failures (parse errors, Cancelled on deadline expiry, Unavailable on
  /// admission rejection) come back as this Result's error with the
  /// original status code.
  Result<QueryResponse> Query(const std::string& tql,
                              const QueryCallOptions& options = {});

  /// Fetches the server's stats JSON.
  Result<std::string> Stats();

  /// Asks the server to load a CSV file (server-side path) as `name`.
  Status LoadCsv(const std::string& name, const std::string& path);

  /// Asks the server to drop a relation.
  Status DropRelation(const std::string& name);

  void Close();
  bool connected() const { return fd_ >= 0; }

 private:
  explicit TqlClient(int fd) : fd_(fd) {}

  /// Sends a request and reads frames until kDone, dispatching data
  /// frames into `response` (which may be null for status-only calls).
  Status RoundTrip(wire::FrameType type, std::string_view body,
                   QueryResponse* response, std::string* stats_json);

  int fd_ = -1;
};

}  // namespace tempus

#endif  // TEMPUS_SERVER_CLIENT_H_

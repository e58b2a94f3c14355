#include "server/client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include "common/string_util.h"
#include "relation/csv.h"

namespace tempus {

Result<TemporalRelation> QueryResponse::ToRelation() const {
  std::istringstream in(csv);
  return ReadCsv(relation_name, &in);
}

Result<TqlClient> TqlClient::Connect(const std::string& host, uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::Internal(StrFormat("socket failed: %s",
                                      std::strerror(errno)));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad IPv4 address: " + host);
  }
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) < 0) {
    const Status status = Status::Unavailable(
        StrFormat("connect %s:%u failed: %s", host.c_str(), port,
                  std::strerror(errno)));
    ::close(fd);
    return status;
  }
  const int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return TqlClient(fd);
}

TqlClient& TqlClient::operator=(TqlClient&& other) noexcept {
  if (this != &other) {
    Close();
    fd_ = other.fd_;
    other.fd_ = -1;
  }
  return *this;
}

void TqlClient::Close() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
  }
}

Status TqlClient::RoundTrip(wire::FrameType type, std::string_view body,
                            QueryResponse* response,
                            std::string* stats_json) {
  if (fd_ < 0) return Status::FailedPrecondition("client is closed");
  TEMPUS_RETURN_IF_ERROR(wire::WriteFrame(fd_, type, body));
  while (true) {
    wire::Frame frame;
    TEMPUS_ASSIGN_OR_RETURN(bool has, wire::ReadFrame(fd_, &frame));
    if (!has) {
      Close();  // Mid-response EOF: the server went away.
      return Status::Unavailable("connection closed by server");
    }
    switch (frame.type) {
      case wire::FrameType::kHeader: {
        if (response == nullptr) break;
        const size_t newline = frame.body.find('\n');
        response->relation_name = frame.body.substr(0, newline);
        response->schema = newline == std::string::npos
                               ? std::string()
                               : frame.body.substr(newline + 1);
        break;
      }
      case wire::FrameType::kRows:
        if (response != nullptr) response->csv += frame.body;
        break;
      case wire::FrameType::kMetrics:
        if (response != nullptr) response->metrics_json = frame.body;
        break;
      case wire::FrameType::kStatsJson:
        if (stats_json != nullptr) *stats_json = frame.body;
        break;
      case wire::FrameType::kError:
        return wire::DecodeError(frame.body);
      case wire::FrameType::kDone:
        return Status::Ok();
      default:
        Close();
        return Status::Internal(StrFormat(
            "unexpected response frame type 0x%02x",
            static_cast<unsigned>(frame.type)));
    }
  }
}

Result<QueryResponse> TqlClient::Query(const std::string& tql,
                                       const QueryCallOptions& options) {
  QueryResponse response;
  TEMPUS_RETURN_IF_ERROR(RoundTrip(
      wire::FrameType::kQuery,
      wire::EncodeQueryRequest(options.deadline_ms, tql),
      &response, nullptr));
  return response;
}

Result<std::string> TqlClient::Stats() {
  std::string stats;
  TEMPUS_RETURN_IF_ERROR(
      RoundTrip(wire::FrameType::kStats, "", nullptr, &stats));
  return stats;
}

Status TqlClient::LoadCsv(const std::string& name, const std::string& path) {
  return RoundTrip(wire::FrameType::kLoadCsv, name + "\n" + path, nullptr,
                   nullptr);
}

Status TqlClient::DropRelation(const std::string& name) {
  return RoundTrip(wire::FrameType::kDropRel, name, nullptr, nullptr);
}

}  // namespace tempus

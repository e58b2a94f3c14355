#include "server/protocol.h"

#include <sys/socket.h>
#include <sys/types.h>

#include <cerrno>
#include <cstring>

#include "common/fault.h"
#include "common/string_util.h"

namespace tempus {
namespace wire {

namespace {

/// Highest StatusCode value a peer may legitimately send; anything above
/// maps to kInternal rather than an out-of-enum cast.
constexpr uint8_t kMaxStatusCode = static_cast<uint8_t>(
    StatusCode::kUnavailable);

Status SendAll(int fd, const char* data, size_t size) {
  size_t sent = 0;
  while (sent < size) {
    const ssize_t n = ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(StrFormat("send failed: %s",
                                           std::strerror(errno)));
    }
    sent += static_cast<size_t>(n);
  }
  return Status::Ok();
}

/// Reads exactly `size` bytes. Returns the byte count actually read
/// (short only on EOF) or an error for socket failures.
Result<size_t> RecvAll(int fd, char* data, size_t size) {
  size_t got = 0;
  while (got < size) {
    const ssize_t n = ::recv(fd, data + got, size - got, 0);
    if (n < 0) {
      if (errno == EINTR) continue;
      return Status::Unavailable(StrFormat("recv failed: %s",
                                           std::strerror(errno)));
    }
    if (n == 0) break;  // EOF.
    got += static_cast<size_t>(n);
  }
  return got;
}

}  // namespace

void AppendU32(std::string* out, uint32_t value) {
  out->push_back(static_cast<char>((value >> 24) & 0xFF));
  out->push_back(static_cast<char>((value >> 16) & 0xFF));
  out->push_back(static_cast<char>((value >> 8) & 0xFF));
  out->push_back(static_cast<char>(value & 0xFF));
}

Result<uint32_t> ConsumeU32(std::string_view body, size_t* pos) {
  if (*pos + 4 > body.size()) {
    return Status::OutOfRange("frame body too short for u32 field");
  }
  const auto byte = [&](size_t i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(body[*pos + i]));
  };
  const uint32_t value =
      (byte(0) << 24) | (byte(1) << 16) | (byte(2) << 8) | byte(3);
  *pos += 4;
  return value;
}

Status WriteFrame(int fd, FrameType type, std::string_view body) {
  TEMPUS_FAULT_POINT("server.frame_write");
  if (body.size() + 1 > kMaxFramePayload) {
    return Status::InvalidArgument(
        StrFormat("frame payload too large: %zu bytes", body.size()));
  }
  std::string frame;
  frame.reserve(body.size() + 5);
  AppendU32(&frame, static_cast<uint32_t>(body.size() + 1));
  frame.push_back(static_cast<char>(type));
  frame.append(body);
  return SendAll(fd, frame.data(), frame.size());
}

Result<bool> ReadFrame(int fd, Frame* out) {
  TEMPUS_FAULT_POINT("server.frame_read");
  char header[4];
  TEMPUS_ASSIGN_OR_RETURN(size_t got, RecvAll(fd, header, 4));
  if (got == 0) return false;  // Clean EOF between frames.
  if (got < 4) {
    return Status::InvalidArgument("truncated frame length prefix");
  }
  const auto byte = [&](size_t i) {
    return static_cast<uint32_t>(static_cast<unsigned char>(header[i]));
  };
  const uint32_t length =
      (byte(0) << 24) | (byte(1) << 16) | (byte(2) << 8) | byte(3);
  if (length == 0) {
    return Status::InvalidArgument("frame without a type byte");
  }
  if (length > kMaxFramePayload) {
    return Status::InvalidArgument(
        StrFormat("oversized frame: %u bytes", length));
  }
  std::string payload(length, '\0');
  TEMPUS_ASSIGN_OR_RETURN(got, RecvAll(fd, payload.data(), payload.size()));
  if (got < payload.size()) {
    return Status::InvalidArgument("truncated frame payload");
  }
  out->type = static_cast<FrameType>(static_cast<unsigned char>(payload[0]));
  out->body = payload.substr(1);
  return true;
}

std::string EncodeQueryRequest(uint32_t deadline_ms, std::string_view tql) {
  std::string body;
  body.reserve(tql.size() + 4);
  AppendU32(&body, deadline_ms);
  body.append(tql);
  return body;
}

Result<QueryRequest> DecodeQueryRequest(std::string_view body) {
  QueryRequest request;
  size_t pos = 0;
  TEMPUS_ASSIGN_OR_RETURN(request.deadline_ms, ConsumeU32(body, &pos));
  request.tql.assign(body.substr(pos));
  return request;
}

std::string EncodeError(const Status& status) {
  std::string body;
  body.push_back(static_cast<char>(status.code()));
  body.append(status.message());
  return body;
}

Status DecodeError(std::string_view body) {
  if (body.empty()) {
    return Status::Internal("server sent an empty error frame");
  }
  const uint8_t code = static_cast<unsigned char>(body[0]);
  if (code == 0 || code > kMaxStatusCode) {
    return Status::Internal("server sent an unknown status code: " +
                            std::string(body.substr(1)));
  }
  return Status(static_cast<StatusCode>(code), std::string(body.substr(1)));
}

}  // namespace wire
}  // namespace tempus

#ifndef TEMPUS_SERVER_PROTOCOL_H_
#define TEMPUS_SERVER_PROTOCOL_H_

#include <cstdint>
#include <string>
#include <string_view>

#include "common/result.h"
#include "common/status.h"

namespace tempus {
namespace wire {

/// The TQL wire protocol (docs/SERVER.md): both directions exchange
/// length-prefixed frames
///
///   [u32 big-endian payload length][u8 frame type][payload bytes]
///
/// where the length counts the type byte plus the payload. A request is
/// one frame; a response is a frame sequence terminated by kDone or by a
/// (terminal) kError.
enum class FrameType : uint8_t {
  // Requests (client -> server).
  kQuery = 'Q',     ///< u32 deadline_ms, TQL text.
  kStats = 'S',     ///< Empty; server answers kStatsJson + kDone.
  kLoadCsv = 'L',   ///< "name\npath": load a CSV file into the catalog.
  kDropRel = 'X',   ///< "name": drop a relation.

  // Responses (server -> client).
  kHeader = 'H',    ///< "result-name\nschema-text".
  kRows = 'R',      ///< A chunk of the result's CSV serialization.
  kMetrics = 'M',   ///< {"metrics":{...},"plan":{...}} JSON.
  kStatsJson = 'J', ///< Server/session stats JSON.
  kError = 'E',     ///< u8 StatusCode, message text. Terminal.
  kDone = 'Z',      ///< Empty. Terminal.
};

/// Upper bound on a frame payload; larger lengths are treated as a
/// malformed (or hostile) peer and fail the connection.
inline constexpr size_t kMaxFramePayload = 16u << 20;

struct Frame {
  FrameType type = FrameType::kDone;
  std::string body;
};

/// Appends a big-endian u32 to `out`.
void AppendU32(std::string* out, uint32_t value);

/// Reads a big-endian u32 at `*pos`, advancing it; OutOfRange when the
/// buffer is too short.
Result<uint32_t> ConsumeU32(std::string_view body, size_t* pos);

/// Writes one frame to `fd`, looping over partial sends (EINTR-safe,
/// SIGPIPE-suppressed). Returns Unavailable when the peer is gone.
Status WriteFrame(int fd, FrameType type, std::string_view body);

/// Reads one frame. Returns false on a clean EOF at a frame boundary;
/// errors on truncated frames, oversized lengths, or empty payloads.
Result<bool> ReadFrame(int fd, Frame* out);

/// Encodes a kQuery request body.
std::string EncodeQueryRequest(uint32_t deadline_ms, std::string_view tql);

/// Decoded kQuery request.
struct QueryRequest {
  uint32_t deadline_ms = 0;
  std::string tql;
};
Result<QueryRequest> DecodeQueryRequest(std::string_view body);

/// Encodes / decodes a kError body ([u8 code][message]).
std::string EncodeError(const Status& status);
Status DecodeError(std::string_view body);

}  // namespace wire
}  // namespace tempus

#endif  // TEMPUS_SERVER_PROTOCOL_H_

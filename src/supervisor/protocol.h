// Wire protocol between wdogd and its clients: length-prefixed frames over a
// local byte-stream transport (see transport.h). Deliberately tiny — the
// supervisor plane only needs subscribe/kick/ack plus a supervisor-to-client
// warning channel:
//
//   [u32 payload_len][u8 type][payload...]
//
// Payload scalars are little-endian fixed width; strings are u32
// length-prefixed. A reader must tolerate torn frames (partial delivery) and
// must drop the connection on malformed input (bad type, oversized length) —
// a client speaking garbage is treated like a crashed client.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "src/common/clock.h"
#include "src/common/result.h"

namespace wdg {

enum class FrameType : uint8_t {
  kSubscribe = 1,       // client -> wdogd: name + requested kick deadline
  kSubscribeAck = 2,    // wdogd -> client: client_id + granted deadline
  kKick = 3,            // client -> wdogd: seq
  kKickAck = 4,         // wdogd -> client: seq (echo)
  kWarn = 5,            // wdogd -> client: first rung of the escalation ladder
  kUnsubscribe = 6,     // client -> wdogd: voluntary, clean departure
  kUnsubscribeAck = 7,  // wdogd -> client: departure acknowledged
};

const char* FrameTypeName(FrameType type);

struct Frame {
  FrameType type = FrameType::kKick;
  std::string name;         // kSubscribe: process name
  DurationNs deadline = 0;  // kSubscribe: requested; kSubscribeAck: granted
  uint64_t client_id = 0;   // kSubscribeAck
  uint64_t seq = 0;         // kKick / kKickAck
  std::string message;      // kWarn: human-readable reason
};

std::string EncodeFrame(const Frame& frame);

// Incremental frame parser. Feed arbitrary byte chunks with Append(); Next()
// yields one complete frame at a time, nullopt while only a partial frame is
// buffered, and an error Status on malformed input (after which the stream
// is poisoned and the connection should be dropped).
class FrameReader {
 public:
  // Upper bound on a single frame; anything larger is malformed by fiat.
  // Real frames are tens of bytes — this catches garbage length prefixes.
  static constexpr size_t kMaxPayload = 4096;

  void Append(std::string_view bytes) { buffer_.append(bytes); }
  Result<std::optional<Frame>> Next();
  size_t buffered_bytes() const { return buffer_.size(); }
  bool poisoned() const { return poisoned_; }

 private:
  std::string buffer_;
  bool poisoned_ = false;
};

}  // namespace wdg

#include "src/supervisor/protocol.h"

#include <cstring>

namespace wdg {
namespace {

void PutU8(std::string& out, uint8_t v) { out.push_back(static_cast<char>(v)); }

void PutU32(std::string& out, uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutU64(std::string& out, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out.push_back(static_cast<char>((v >> (8 * i)) & 0xff));
  }
}

void PutString(std::string& out, std::string_view s) {
  PutU32(out, static_cast<uint32_t>(s.size()));
  out.append(s);
}

// Cursor over a payload; all Take* return false on underrun.
struct Cursor {
  std::string_view data;
  size_t pos = 0;

  bool TakeU8(uint8_t& v) {
    if (pos + 1 > data.size()) return false;
    v = static_cast<uint8_t>(data[pos++]);
    return true;
  }
  bool TakeU32(uint32_t& v) {
    if (pos + 4 > data.size()) return false;
    v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data[pos + i])) << (8 * i);
    }
    pos += 4;
    return true;
  }
  bool TakeU64(uint64_t& v) {
    if (pos + 8 > data.size()) return false;
    v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data[pos + i])) << (8 * i);
    }
    pos += 8;
    return true;
  }
  bool TakeString(std::string& v) {
    uint32_t len = 0;
    if (!TakeU32(len)) return false;
    if (pos + len > data.size()) return false;
    v.assign(data.substr(pos, len));
    pos += len;
    return true;
  }
};

bool ValidType(uint8_t raw) {
  return raw >= static_cast<uint8_t>(FrameType::kSubscribe) &&
         raw <= static_cast<uint8_t>(FrameType::kUnsubscribeAck);
}

}  // namespace

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kSubscribe: return "subscribe";
    case FrameType::kSubscribeAck: return "subscribe-ack";
    case FrameType::kKick: return "kick";
    case FrameType::kKickAck: return "kick-ack";
    case FrameType::kWarn: return "warn";
    case FrameType::kUnsubscribe: return "unsubscribe";
    case FrameType::kUnsubscribeAck: return "unsubscribe-ack";
  }
  return "unknown";
}

std::string EncodeFrame(const Frame& frame) {
  std::string payload;
  switch (frame.type) {
    case FrameType::kSubscribe:
      PutString(payload, frame.name);
      PutU64(payload, static_cast<uint64_t>(frame.deadline));
      break;
    case FrameType::kSubscribeAck:
      PutU64(payload, frame.client_id);
      PutU64(payload, static_cast<uint64_t>(frame.deadline));
      break;
    case FrameType::kKick:
    case FrameType::kKickAck:
      PutU64(payload, frame.seq);
      break;
    case FrameType::kWarn:
      PutString(payload, frame.message);
      break;
    case FrameType::kUnsubscribe:
    case FrameType::kUnsubscribeAck:
      break;
  }
  std::string out;
  out.reserve(payload.size() + 5);
  PutU32(out, static_cast<uint32_t>(payload.size()));
  PutU8(out, static_cast<uint8_t>(frame.type));
  out.append(payload);
  return out;
}

Result<std::optional<Frame>> FrameReader::Next() {
  if (poisoned_) {
    return CorruptionError("frame stream poisoned by earlier malformed frame");
  }
  if (buffer_.size() < 5) {
    return std::optional<Frame>(std::nullopt);
  }
  Cursor header{buffer_, 0};
  uint32_t payload_len = 0;
  uint8_t raw_type = 0;
  header.TakeU32(payload_len);
  header.TakeU8(raw_type);
  if (payload_len > kMaxPayload) {
    poisoned_ = true;
    return CorruptionError("frame payload length " + std::to_string(payload_len) +
                           " exceeds protocol maximum");
  }
  if (!ValidType(raw_type)) {
    poisoned_ = true;
    return CorruptionError("unknown frame type " + std::to_string(raw_type));
  }
  if (buffer_.size() < 5 + static_cast<size_t>(payload_len)) {
    return std::optional<Frame>(std::nullopt);  // torn frame: wait for more bytes
  }
  Cursor body{std::string_view(buffer_).substr(5, payload_len), 0};
  Frame frame;
  frame.type = static_cast<FrameType>(raw_type);
  bool ok = true;
  switch (frame.type) {
    case FrameType::kSubscribe: {
      uint64_t deadline = 0;
      ok = body.TakeString(frame.name) && body.TakeU64(deadline);
      frame.deadline = static_cast<DurationNs>(deadline);
      break;
    }
    case FrameType::kSubscribeAck: {
      uint64_t deadline = 0;
      ok = body.TakeU64(frame.client_id) && body.TakeU64(deadline);
      frame.deadline = static_cast<DurationNs>(deadline);
      break;
    }
    case FrameType::kKick:
    case FrameType::kKickAck:
      ok = body.TakeU64(frame.seq);
      break;
    case FrameType::kWarn:
      ok = body.TakeString(frame.message);
      break;
    case FrameType::kUnsubscribe:
    case FrameType::kUnsubscribeAck:
      break;
  }
  // The payload must hold its fields exactly: a frame with bytes to spare
  // does not re-encode to what was sent, so it is as malformed as a short one.
  if (!ok || body.pos != payload_len) {
    poisoned_ = true;
    return CorruptionError(std::string(ok ? "trailing bytes" : "truncated payload") +
                           " in " + FrameTypeName(frame.type) + " frame");
  }
  buffer_.erase(0, 5 + payload_len);
  return std::optional<Frame>(std::move(frame));
}

}  // namespace wdg

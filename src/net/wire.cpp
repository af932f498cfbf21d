#include "net/wire.h"

#include <cstring>

namespace adc::net {
namespace {

constexpr std::uint8_t kFlagCached = 0x01;
constexpr std::uint8_t kFlagProxyHit = 0x02;
constexpr std::uint8_t kFlagDegraded = 0x04;

// Fixed message payload size excluding body and path entries:
// type(1) + wire_version(1) + request_id(8) + object(8) + sender/target/
// client/forward_count/hops/resolver(6 × 4) + flags(1) + version(8) +
// claim(8) + issued_at(8) + payload_bytes(8) + payload_checksum(8) +
// body_len(2) + path_len(2).
constexpr std::size_t kMessageFixedBytes = 1 + 1 + 8 + 8 + 6 * 4 + 1 + 8 + 8 + 8 + 8 + 8 + 2 + 2;

// type(1) + wire_version(1) + node_kind(1) + node_id(4).
constexpr std::size_t kHelloBytes = 7;

// Writers at a fixed offset into a buffer the caller already sized; the
// byte-wise little-endian stores compile to single moves.
void store_u16(std::uint8_t* p, std::uint16_t v) {
  p[0] = static_cast<std::uint8_t>(v);
  p[1] = static_cast<std::uint8_t>(v >> 8);
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

void store_i32(std::uint8_t* p, std::int32_t v) { store_u32(p, static_cast<std::uint32_t>(v)); }

void store_i64(std::uint8_t* p, std::int64_t v) { store_u64(p, static_cast<std::uint64_t>(v)); }

/// Grows `out` by `size` bytes and returns where they start.
std::uint8_t* append(std::vector<std::uint8_t>* out, std::size_t size) {
  const std::size_t at = out->size();
  out->resize(at + size);
  return out->data() + at;
}

// Readers over a bounds-checked-by-caller cursor.
std::uint8_t get_u8(const std::uint8_t* p) { return p[0]; }

std::uint16_t get_u16(const std::uint8_t* p) {
  return static_cast<std::uint16_t>(p[0] | (std::uint16_t{p[1]} << 8));
}

std::uint32_t get_u32(const std::uint8_t* p) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

std::int32_t get_i32(const std::uint8_t* p) { return static_cast<std::int32_t>(get_u32(p)); }

std::int64_t get_i64(const std::uint8_t* p) { return static_cast<std::int64_t>(get_u64(p)); }

DecodeResult fail(std::string* error, const char* reason) {
  if (error) *error = reason;
  return DecodeResult::kCorrupt;
}

}  // namespace

FrameType frame_type_for(sim::MessageKind kind) noexcept {
  switch (kind) {
    case sim::MessageKind::kRequest:
      return FrameType::kRequest;
    case sim::MessageKind::kReply:
      return FrameType::kReply;
    case sim::MessageKind::kSwimPing:
      return FrameType::kSwimPing;
    case sim::MessageKind::kSwimAck:
      return FrameType::kSwimAck;
    case sim::MessageKind::kSwimPingReq:
      return FrameType::kSwimPingReq;
    case sim::MessageKind::kSwimSuspect:
      return FrameType::kSwimSuspect;
    case sim::MessageKind::kSwimAlive:
      return FrameType::kSwimAlive;
    case sim::MessageKind::kSwimDead:
      return FrameType::kSwimDead;
    case sim::MessageKind::kRepairOffer:
      return FrameType::kRepairOffer;
    case sim::MessageKind::kRepairReply:
      return FrameType::kRepairReply;
    case sim::MessageKind::kStripeStore:
      return FrameType::kStripeStore;
    case sim::MessageKind::kChunkRequest:
      return FrameType::kChunkRequest;
    case sim::MessageKind::kChunkReply:
      return FrameType::kChunkReply;
    case sim::MessageKind::kRestripeOffer:
      return FrameType::kRestripeOffer;
    case sim::MessageKind::kRestripeAck:
      return FrameType::kRestripeAck;
  }
  return FrameType::kRequest;
}

sim::MessageKind kind_for(FrameType type) noexcept {
  switch (type) {
    case FrameType::kRequest:
    case FrameType::kHello:
      return sim::MessageKind::kRequest;
    case FrameType::kReply:
      return sim::MessageKind::kReply;
    case FrameType::kSwimPing:
      return sim::MessageKind::kSwimPing;
    case FrameType::kSwimAck:
      return sim::MessageKind::kSwimAck;
    case FrameType::kSwimPingReq:
      return sim::MessageKind::kSwimPingReq;
    case FrameType::kSwimSuspect:
      return sim::MessageKind::kSwimSuspect;
    case FrameType::kSwimAlive:
      return sim::MessageKind::kSwimAlive;
    case FrameType::kSwimDead:
      return sim::MessageKind::kSwimDead;
    case FrameType::kRepairOffer:
      return sim::MessageKind::kRepairOffer;
    case FrameType::kRepairReply:
      return sim::MessageKind::kRepairReply;
    case FrameType::kStripeStore:
      return sim::MessageKind::kStripeStore;
    case FrameType::kChunkRequest:
      return sim::MessageKind::kChunkRequest;
    case FrameType::kChunkReply:
      return sim::MessageKind::kChunkReply;
    case FrameType::kRestripeOffer:
      return sim::MessageKind::kRestripeOffer;
    case FrameType::kRestripeAck:
      return sim::MessageKind::kRestripeAck;
  }
  return sim::MessageKind::kRequest;
}

void encode_message(const WireMessage& wire, std::vector<std::uint8_t>* out) {
  const std::size_t keep = wire.path.size() > kMaxPath ? kMaxPath : wire.path.size();
  const std::size_t skip = wire.path.size() - keep;
  const std::size_t body_len =
      wire.body.size() > kMaxBodyBytes ? kMaxBodyBytes : wire.body.size();
  const std::uint32_t payload_len =
      static_cast<std::uint32_t>(kMessageFixedBytes + body_len + 4 * keep);
  std::uint8_t* p = append(out, kLengthPrefixBytes + payload_len);
  store_u32(p, payload_len);
  p += kLengthPrefixBytes;
  // Offsets are the decoder's, relative to the type byte.
  p[0] = static_cast<std::uint8_t>(frame_type_for(wire.msg.kind));
  p[1] = kWireVersion;
  store_u64(p + 2, wire.msg.request_id);
  store_u64(p + 10, wire.msg.object);
  store_i32(p + 18, wire.msg.sender);
  store_i32(p + 22, wire.msg.target);
  store_i32(p + 26, wire.msg.client);
  store_i32(p + 30, wire.msg.forward_count);
  store_i32(p + 34, wire.msg.hops);
  store_i32(p + 38, wire.msg.resolver);
  std::uint8_t flags = 0;
  if (wire.msg.cached) flags |= kFlagCached;
  if (wire.msg.proxy_hit) flags |= kFlagProxyHit;
  if (wire.msg.degraded) flags |= kFlagDegraded;
  p[42] = flags;
  store_u64(p + 43, wire.msg.version);
  store_u64(p + 51, wire.msg.claim);
  store_i64(p + 59, wire.msg.issued_at);
  store_u64(p + 67, wire.msg.payload_bytes);
  store_u64(p + 75, wire.checksum);
  store_u16(p + 83, static_cast<std::uint16_t>(body_len));
  store_u16(p + 85, static_cast<std::uint16_t>(keep));
  p += kMessageFixedBytes;
  if (body_len > 0) std::memcpy(p, wire.body.data(), body_len);
  p += body_len;
  for (std::size_t i = skip; i < wire.path.size(); ++i, p += 4) store_i32(p, wire.path[i]);
}

void encode_hello(const Hello& hello, std::vector<std::uint8_t>* out) {
  std::uint8_t* p = append(out, kLengthPrefixBytes + kHelloBytes);
  store_u32(p, kHelloBytes);
  p += kLengthPrefixBytes;
  p[0] = static_cast<std::uint8_t>(FrameType::kHello);
  p[1] = kWireVersion;
  p[2] = static_cast<std::uint8_t>(hello.kind);
  store_i32(p + 3, hello.node_id);
}

DecodeResult decode_frame(const std::uint8_t* data, std::size_t size, std::size_t* consumed,
                          Frame* out, std::string* error) {
  *consumed = 0;
  if (size < kLengthPrefixBytes) return DecodeResult::kNeedMore;
  const std::uint32_t payload_len = get_u32(data);
  if (payload_len < 1) return fail(error, "frame with empty payload");
  if (payload_len > kMaxFramePayload) return fail(error, "frame exceeds kMaxFramePayload");
  if (size < kLengthPrefixBytes + payload_len) return DecodeResult::kNeedMore;

  const std::uint8_t* p = data + kLengthPrefixBytes;
  const std::uint8_t type = get_u8(p);
  switch (type) {
    case static_cast<std::uint8_t>(FrameType::kHello): {
      if (payload_len != kHelloBytes) return fail(error, "HELLO payload size mismatch");
      if (get_u8(p + 1) != kWireVersion) return fail(error, "unsupported wire version");
      const std::uint8_t kind = get_u8(p + 2);
      if (kind > static_cast<std::uint8_t>(sim::NodeKind::kOrigin)) {
        return fail(error, "HELLO with unknown node kind");
      }
      out->type = FrameType::kHello;
      out->message.msg = sim::Message{};
      out->message.path.clear();
      out->message.body.clear();
      out->message.checksum = 0;
      out->hello.kind = static_cast<sim::NodeKind>(kind);
      out->hello.node_id = get_i32(p + 3);
      break;
    }
    case static_cast<std::uint8_t>(FrameType::kRequest):
    case static_cast<std::uint8_t>(FrameType::kReply):
    case static_cast<std::uint8_t>(FrameType::kSwimPing):
    case static_cast<std::uint8_t>(FrameType::kSwimAck):
    case static_cast<std::uint8_t>(FrameType::kSwimPingReq):
    case static_cast<std::uint8_t>(FrameType::kSwimSuspect):
    case static_cast<std::uint8_t>(FrameType::kSwimAlive):
    case static_cast<std::uint8_t>(FrameType::kSwimDead):
    case static_cast<std::uint8_t>(FrameType::kRepairOffer):
    case static_cast<std::uint8_t>(FrameType::kRepairReply):
    case static_cast<std::uint8_t>(FrameType::kStripeStore):
    case static_cast<std::uint8_t>(FrameType::kChunkRequest):
    case static_cast<std::uint8_t>(FrameType::kChunkReply):
    case static_cast<std::uint8_t>(FrameType::kRestripeOffer):
    case static_cast<std::uint8_t>(FrameType::kRestripeAck): {
      if (payload_len < kMessageFixedBytes) return fail(error, "message payload too short");
      if (get_u8(p + 1) != kWireVersion) return fail(error, "unsupported wire version");
      const std::uint16_t body_len = get_u16(p + kMessageFixedBytes - 4);
      const std::uint16_t path_len = get_u16(p + kMessageFixedBytes - 2);
      if (body_len > kMaxBodyBytes) return fail(error, "body_len exceeds kMaxBodyBytes");
      if (path_len > kMaxPath) return fail(error, "path_len exceeds kMaxPath");
      if (payload_len != kMessageFixedBytes + body_len + 4u * path_len) {
        return fail(error, "payload size does not match body_len/path_len");
      }
      // Every field is overwritten; the vectors keep their capacity, so a
      // Frame reused across a read loop stops allocating once warm.
      out->type = static_cast<FrameType>(type);
      out->hello = Hello{};
      sim::Message& msg = out->message.msg;
      msg.kind = kind_for(out->type);
      msg.request_id = get_u64(p + 2);
      msg.object = get_u64(p + 10);
      msg.sender = get_i32(p + 18);
      msg.target = get_i32(p + 22);
      msg.client = get_i32(p + 26);
      msg.forward_count = get_i32(p + 30);
      msg.hops = get_i32(p + 34);
      msg.resolver = get_i32(p + 38);
      const std::uint8_t flags = get_u8(p + 42);
      if ((flags & ~(kFlagCached | kFlagProxyHit | kFlagDegraded)) != 0) {
        return fail(error, "unknown flag bits set");
      }
      msg.cached = (flags & kFlagCached) != 0;
      msg.proxy_hit = (flags & kFlagProxyHit) != 0;
      msg.degraded = (flags & kFlagDegraded) != 0;
      msg.version = get_u64(p + 43);
      msg.claim = get_u64(p + 51);
      msg.issued_at = get_i64(p + 59);
      msg.payload_bytes = get_u64(p + 67);
      out->message.checksum = get_u64(p + 75);
      const std::uint8_t* body = p + kMessageFixedBytes;
      out->message.body.assign(body, body + body_len);
      out->message.path.resize(path_len);
      const std::uint8_t* entries = body + body_len;
      for (std::uint16_t i = 0; i < path_len; ++i) {
        out->message.path[i] = get_i32(entries + 4u * i);
      }
      break;
    }
    default:
      return fail(error, "unknown frame type");
  }
  *consumed = kLengthPrefixBytes + payload_len;
  return DecodeResult::kFrame;
}

}  // namespace adc::net

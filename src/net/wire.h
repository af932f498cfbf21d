// Length-prefixed binary wire protocol for the live cluster runtime.
//
// The protocol serializes exactly the message shapes the simulator moves
// (sim::Message: REQUEST/REPLY with request id, URL id, hop counters and
// the resolver annotation) so a TCP deployment and a simulation are two
// transports for one protocol.  On top of the simulator's fields a frame
// carries the request's *journey path* — the stack of node ids the message
// has visited, which over the event queue is implicit in the per-proxy
// backwarding records but on a wire is worth making explicit (debugging a
// live random walk, asserting backwarding symmetry).
//
// Frame layout, protocol version 2 (all integers little-endian):
//
//   u32  payload_len                  (bytes after this prefix)
//   u8   type                         1=REQUEST 2=REPLY 3=HELLO
//                                     4..9=SWIM control (ping, ack,
//                                     ping-req, suspect, alive, dead)
//                                     10..11=anti-entropy (offer, reply)
//                                     12..14=erasure tier (stripe-store,
//                                     chunk-request, chunk-reply)
//                                     15..16=re-stripe repair (offer, ack)
//   u8   wire_version                 must equal kWireVersion
//
// Version 2 added the payload-byte fields (payload_bytes, checksum, body
// sample) and the version byte itself; v1 frames had the request_id where
// the version byte now sits and are rejected deterministically — a mixed
// v1/v2 cluster fails fast at the first frame instead of mis-decoding.
//
// Message payload after `wire_version` (same shape for every non-HELLO
// type — SWIM, repair and erasure frames reuse the request/reply fields
// exactly the way sim::Message documents):
//
//   u64  request_id
//   u64  object
//   i32  sender
//   i32  target
//   i32  client
//   i32  forward_count
//   i32  hops
//   i32  resolver
//   u8   flags                        bit0=cached bit1=proxy_hit
//                                     bit2=degraded
//   u64  version
//   u64  claim                        resolver-claim version (0 = unset)
//   i64  issued_at
//   u64  payload_bytes                object/chunk size being described
//   u64  payload_checksum             over the body sample (store-defined)
//   u16  body_len                     (<= kMaxBodyBytes)
//   u16  path_len                     (<= kMaxPath)
//   u8  × body_len                    synthetic body sample
//   i32 × path_len                    visited node ids, oldest first
//
// HELLO payload after `type` (sent once per connection by the initiating
// side so the receiver can route by node id):
//
//   u8   wire_version                 must equal kWireVersion
//   u8   node_kind                    0=client 1=proxy 2=origin
//   i32  node_id
//
// Decoding is strict: unknown types, version mismatches, unknown flag
// bits, oversized lengths, body_len/path_len/payload mismatches and
// truncated-beyond-the-prefix frames are kCorrupt, never guessed at.  A
// prefix of a valid frame is kNeedMore.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "sim/message.h"
#include "sim/node.h"
#include "util/types.h"

namespace adc::net {

/// Protocol version stamped into (and required of) every frame.  Bumped
/// to 2 when the payload-byte fields were added.
inline constexpr std::uint8_t kWireVersion = 2;

/// Longest journey path a frame may carry; appending stops beyond it.
inline constexpr std::size_t kMaxPath = 1024;

/// Longest synthetic body sample a frame may carry.  Matches
/// store::kMaxBodySample (static_assert'd where both headers meet).
inline constexpr std::size_t kMaxBodyBytes = 256;

/// Upper bound on `payload_len` (a max-path, max-body message needs
/// 4439 bytes).
inline constexpr std::size_t kMaxFramePayload = 8192;

inline constexpr std::size_t kLengthPrefixBytes = 4;

enum class FrameType : std::uint8_t {
  kRequest = 1,
  kReply = 2,
  kHello = 3,
  // HELLO sits between the protocol kinds and the control kinds, so the
  // MessageKind <-> FrameType relation is not a fixed offset; always go
  // through frame_type_for()/kind_for().
  kSwimPing = 4,
  kSwimAck = 5,
  kSwimPingReq = 6,
  kSwimSuspect = 7,
  kSwimAlive = 8,
  kSwimDead = 9,
  kRepairOffer = 10,
  kRepairReply = 11,
  kStripeStore = 12,
  kChunkRequest = 13,
  kChunkReply = 14,
  kRestripeOffer = 15,
  kRestripeAck = 16,
};

/// Frame type carrying a given message kind (every kind is encodable).
FrameType frame_type_for(sim::MessageKind kind) noexcept;

/// Message kind for a non-HELLO frame type; kRequest for kHello (callers
/// branch on kHello before asking).
sim::MessageKind kind_for(FrameType type) noexcept;

/// Connection handshake: who is on the other end of this socket.
struct Hello {
  NodeId node_id = kInvalidNode;
  sim::NodeKind kind = sim::NodeKind::kClient;
};

/// A protocol message plus its journey path and (when the payload store is
/// enabled) the serialized body sample.  `msg.payload_bytes` describes the
/// full synthetic payload; `body` carries its first min(payload_bytes,
/// kMaxBodyBytes) pattern bytes and `checksum` covers them — the daemon
/// fills both on encode and verifies them on delivery.  Both stay empty/0
/// with the store disabled.
struct WireMessage {
  sim::Message msg;
  std::vector<NodeId> path;
  std::vector<std::uint8_t> body;
  std::uint64_t checksum = 0;
};

/// One decoded frame; `message` is valid for kRequest/kReply, `hello` for
/// kHello.
struct Frame {
  FrameType type = FrameType::kRequest;
  WireMessage message;
  Hello hello;
};

/// Appends a complete frame (prefix included) to `out`: one resize, then
/// stores at fixed offsets.  The frame type is derived from
/// `wire.msg.kind`; paths longer than kMaxPath are truncated to the most
/// recent kMaxPath entries.
void encode_message(const WireMessage& wire, std::vector<std::uint8_t>* out);
void encode_hello(const Hello& hello, std::vector<std::uint8_t>* out);

enum class DecodeResult {
  kFrame,     // *out holds a frame, *consumed bytes were used
  kNeedMore,  // the buffer holds a prefix of a valid frame
  kCorrupt,   // the buffer can never become a valid frame
};

/// Attempts to decode one frame from the front of [data, data + size).
/// On kFrame, `*consumed` is the total encoded size (prefix + payload) and
/// every field of `*out` is overwritten; its vectors keep their capacity,
/// so a caller decoding into one Frame in a loop allocates only while the
/// longest path or body seen so far grows.
DecodeResult decode_frame(const std::uint8_t* data, std::size_t size, std::size_t* consumed,
                          Frame* out, std::string* error = nullptr);

}  // namespace adc::net

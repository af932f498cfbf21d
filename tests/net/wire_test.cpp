// Wire-protocol codec tests: structured round-trips, a seeded fuzz pass
// (random messages, split buffers, max-size paths), and rejection of
// truncated or corrupted frames.  The fuzz loops run under the asan preset
// in CI, so out-of-bounds reads in the decoder fail loudly.
#include "net/wire.h"

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <cstddef>
#include <vector>

#include "net/socket.h"
#include "util/rng.h"

namespace adc::net {
namespace {

sim::Message random_message(util::Rng& rng) {
  sim::Message msg;
  msg.kind = rng.chance(0.5) ? sim::MessageKind::kRequest : sim::MessageKind::kReply;
  msg.request_id = rng.next();
  msg.object = rng.next();
  msg.sender = static_cast<NodeId>(rng.range(-1, 1 << 20));
  msg.target = static_cast<NodeId>(rng.range(-1, 1 << 20));
  msg.client = static_cast<NodeId>(rng.range(-1, 1 << 20));
  msg.forward_count = static_cast<int>(rng.range(0, 64));
  msg.hops = static_cast<int>(rng.range(0, 1 << 24));
  msg.resolver = static_cast<NodeId>(rng.range(-1, 1 << 20));
  msg.cached = rng.chance(0.5);
  msg.proxy_hit = rng.chance(0.5);
  msg.version = rng.next();
  msg.claim = rng.next();
  msg.issued_at = static_cast<SimTime>(rng.next() >> 1);
  msg.payload_bytes = rng.next();
  msg.degraded = rng.chance(0.5);
  return msg;
}

std::vector<NodeId> random_path(util::Rng& rng, std::size_t length) {
  std::vector<NodeId> path;
  path.reserve(length);
  for (std::size_t i = 0; i < length; ++i) {
    path.push_back(static_cast<NodeId>(rng.range(0, 1 << 16)));
  }
  return path;
}

std::vector<std::uint8_t> random_body(util::Rng& rng, std::size_t length) {
  std::vector<std::uint8_t> body(length);
  for (auto& byte : body) byte = static_cast<std::uint8_t>(rng.next());
  return body;
}

void expect_equal(const WireMessage& a, const WireMessage& b) {
  EXPECT_EQ(a.msg.kind, b.msg.kind);
  EXPECT_EQ(a.msg.request_id, b.msg.request_id);
  EXPECT_EQ(a.msg.object, b.msg.object);
  EXPECT_EQ(a.msg.sender, b.msg.sender);
  EXPECT_EQ(a.msg.target, b.msg.target);
  EXPECT_EQ(a.msg.client, b.msg.client);
  EXPECT_EQ(a.msg.forward_count, b.msg.forward_count);
  EXPECT_EQ(a.msg.hops, b.msg.hops);
  EXPECT_EQ(a.msg.resolver, b.msg.resolver);
  EXPECT_EQ(a.msg.cached, b.msg.cached);
  EXPECT_EQ(a.msg.proxy_hit, b.msg.proxy_hit);
  EXPECT_EQ(a.msg.version, b.msg.version);
  EXPECT_EQ(a.msg.claim, b.msg.claim);
  EXPECT_EQ(a.msg.issued_at, b.msg.issued_at);
  EXPECT_EQ(a.msg.payload_bytes, b.msg.payload_bytes);
  EXPECT_EQ(a.msg.degraded, b.msg.degraded);
  EXPECT_EQ(a.body, b.body);
  EXPECT_EQ(a.checksum, b.checksum);
  EXPECT_EQ(a.path, b.path);
}

TEST(Wire, MessageRoundTrip) {
  WireMessage original;
  original.msg.kind = sim::MessageKind::kReply;
  original.msg.request_id = make_request_id(6, 1234);
  original.msg.object = 42;
  original.msg.sender = 3;
  original.msg.target = 6;
  original.msg.client = 6;
  original.msg.forward_count = 2;
  original.msg.hops = 7;
  original.msg.resolver = 1;
  original.msg.cached = true;
  original.msg.proxy_hit = true;
  original.msg.version = 9;
  original.msg.issued_at = 123456789;
  original.path = {0, 3, 1, 5, 1, 3, 0};

  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);

  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded), DecodeResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(decoded.type, FrameType::kReply);
  expect_equal(decoded.message, original);
}

TEST(Wire, ClaimExtremeValuesRoundTrip) {
  // The resolver-claim version is a monotone floor accumulated across
  // forwards (sim/message.h); anti-entropy correctness rides on it
  // surviving the codec at every magnitude.
  for (const std::uint64_t claim :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{0x8000000000000000ULL},
        ~std::uint64_t{0}}) {
    for (const sim::MessageKind kind :
         {sim::MessageKind::kRequest, sim::MessageKind::kReply,
          sim::MessageKind::kRepairOffer, sim::MessageKind::kRepairReply}) {
      WireMessage original;
      original.msg.kind = kind;
      original.msg.request_id = make_request_id(1, 7);
      original.msg.object = 99;
      original.msg.claim = claim;
      std::vector<std::uint8_t> bytes;
      encode_message(original, &bytes);
      Frame decoded;
      std::size_t consumed = 0;
      ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded),
                DecodeResult::kFrame);
      EXPECT_EQ(decoded.message.msg.claim, claim);
    }
  }
}

TEST(Wire, ClaimByteLayoutIsPinned) {
  // claim occupies payload bytes [51, 59) little-endian (wire.h v2); a
  // codec change that shifts it would silently corrupt claims between old
  // and new daemons, so the offset is pinned here.
  WireMessage original;
  original.msg.kind = sim::MessageKind::kRequest;
  original.msg.claim = 0x0123456789ABCDEFULL;
  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);

  const std::size_t claim_offset = kLengthPrefixBytes + 51;
  const std::uint8_t expected[8] = {0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01};
  for (std::size_t i = 0; i < 8; ++i) {
    EXPECT_EQ(bytes[claim_offset + i], expected[i]) << "byte " << i;
  }

  // And the decoder reads exactly that span: flipping its low byte shows
  // up in the decoded claim, nowhere else.
  bytes[claim_offset] = 0x00;
  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded), DecodeResult::kFrame);
  EXPECT_EQ(decoded.message.msg.claim, 0x0123456789ABCD00ULL);
  EXPECT_EQ(decoded.message.msg.object, original.msg.object);
}

// Golden v2 frames.  Every fixed field holds a distinct value, so a field
// written at the wrong offset, in the wrong byte order or at the wrong
// width changes these bytes; they are spelled out by hand from the layout
// in wire.h, not captured from the encoder.
WireMessage golden_request() {
  WireMessage wire;
  wire.msg.kind = sim::MessageKind::kRequest;
  wire.msg.request_id = 0x0102030405060708ULL;
  wire.msg.object = 0x1112131415161718ULL;
  wire.msg.sender = 0x21222324;
  wire.msg.target = 0x31323334;
  wire.msg.client = 0x41424344;
  wire.msg.forward_count = 5;
  wire.msg.hops = 6;
  wire.msg.resolver = -2;
  wire.msg.cached = true;
  wire.msg.degraded = true;
  wire.msg.version = 0x5152535455565758ULL;
  wire.msg.claim = 0x6162636465666768ULL;
  wire.msg.issued_at = 0x7172737475767778LL;
  wire.msg.payload_bytes = 0x8182838485868788ULL;
  wire.checksum = 0x9192939495969798ULL;
  wire.path = {7, 0x0A0B0C0D, -1};
  return wire;
}

const std::vector<std::uint8_t> kGoldenRequestBytes = {
    0x63, 0x00, 0x00, 0x00,                          // payload_len 99 = 87 + 3 * 4
    0x01,                                            // type REQUEST
    0x02,                                            // wire_version
    0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01,  // request_id
    0x18, 0x17, 0x16, 0x15, 0x14, 0x13, 0x12, 0x11,  // object
    0x24, 0x23, 0x22, 0x21,                          // sender
    0x34, 0x33, 0x32, 0x31,                          // target
    0x44, 0x43, 0x42, 0x41,                          // client
    0x05, 0x00, 0x00, 0x00,                          // forward_count
    0x06, 0x00, 0x00, 0x00,                          // hops
    0xFE, 0xFF, 0xFF, 0xFF,                          // resolver -2
    0x05,                                            // flags cached | degraded
    0x58, 0x57, 0x56, 0x55, 0x54, 0x53, 0x52, 0x51,  // version
    0x68, 0x67, 0x66, 0x65, 0x64, 0x63, 0x62, 0x61,  // claim
    0x78, 0x77, 0x76, 0x75, 0x74, 0x73, 0x72, 0x71,  // issued_at
    0x88, 0x87, 0x86, 0x85, 0x84, 0x83, 0x82, 0x81,  // payload_bytes
    0x98, 0x97, 0x96, 0x95, 0x94, 0x93, 0x92, 0x91,  // payload_checksum
    0x00, 0x00,                                      // body_len
    0x03, 0x00,                                      // path_len
    0x07, 0x00, 0x00, 0x00,                          // path[0] 7
    0x0D, 0x0C, 0x0B, 0x0A,                          // path[1]
    0xFF, 0xFF, 0xFF, 0xFF,                          // path[2] -1
};

WireMessage golden_reply() {
  WireMessage wire;
  wire.msg.kind = sim::MessageKind::kReply;
  wire.msg.request_id = 9;
  wire.msg.object = 300;
  wire.msg.sender = 4;
  wire.msg.target = 6;
  wire.msg.client = 6;
  wire.msg.hops = 3;
  wire.msg.resolver = 4;
  wire.msg.proxy_hit = true;
  wire.msg.payload_bytes = 5;
  wire.body = {0xDE, 0xAD, 0xBE, 0xEF, 0x00};
  wire.checksum = 0x0123456789ABCDEFULL;
  wire.path = {6};
  return wire;
}

const std::vector<std::uint8_t> kGoldenReplyBytes = {
    0x60, 0x00, 0x00, 0x00,                          // payload_len 96 = 87 + 5 + 4
    0x02,                                            // type REPLY
    0x02,                                            // wire_version
    0x09, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // request_id
    0x2C, 0x01, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // object 300
    0x04, 0x00, 0x00, 0x00,                          // sender
    0x06, 0x00, 0x00, 0x00,                          // target
    0x06, 0x00, 0x00, 0x00,                          // client
    0x00, 0x00, 0x00, 0x00,                          // forward_count
    0x03, 0x00, 0x00, 0x00,                          // hops
    0x04, 0x00, 0x00, 0x00,                          // resolver
    0x02,                                            // flags proxy_hit
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // version
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // claim
    0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // issued_at
    0x05, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00, 0x00,  // payload_bytes
    0xEF, 0xCD, 0xAB, 0x89, 0x67, 0x45, 0x23, 0x01,  // payload_checksum
    0x05, 0x00,                                      // body_len
    0x01, 0x00,                                      // path_len
    0xDE, 0xAD, 0xBE, 0xEF, 0x00,                    // body sample
    0x06, 0x00, 0x00, 0x00,                          // path[0] 6
};

TEST(Wire, GoldenRequestBytesArePinned) {
  std::vector<std::uint8_t> bytes;
  encode_message(golden_request(), &bytes);
  EXPECT_EQ(bytes, kGoldenRequestBytes);

  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(kGoldenRequestBytes.data(), kGoldenRequestBytes.size(), &consumed,
                         &decoded),
            DecodeResult::kFrame);
  EXPECT_EQ(consumed, kGoldenRequestBytes.size());
  expect_equal(decoded.message, golden_request());
}

TEST(Wire, GoldenReplyBytesArePinned) {
  std::vector<std::uint8_t> bytes;
  encode_message(golden_reply(), &bytes);
  EXPECT_EQ(bytes, kGoldenReplyBytes);

  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(kGoldenReplyBytes.data(), kGoldenReplyBytes.size(), &consumed,
                         &decoded),
            DecodeResult::kFrame);
  EXPECT_EQ(consumed, kGoldenReplyBytes.size());
  expect_equal(decoded.message, golden_reply());
}

TEST(Wire, EncodeAppendsAfterExistingBytes) {
  // encode_message appends: whatever the buffer held stays in front.
  std::vector<std::uint8_t> bytes = {0xAA, 0xBB, 0xCC};
  encode_message(golden_request(), &bytes);
  encode_message(golden_reply(), &bytes);
  std::vector<std::uint8_t> expected = {0xAA, 0xBB, 0xCC};
  expected.insert(expected.end(), kGoldenRequestBytes.begin(), kGoldenRequestBytes.end());
  expected.insert(expected.end(), kGoldenReplyBytes.begin(), kGoldenReplyBytes.end());
  EXPECT_EQ(bytes, expected);
}

/// Reads whatever `fd` holds right now and appends it to `out`.
void drain_into(int fd, std::vector<std::uint8_t>* out) {
  std::uint8_t chunk[64 * 1024];
  for (;;) {
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return;
    out->insert(out->end(), chunk, chunk + n);
  }
}

TEST(Wire, QueueMessageAppendsTheGoldenBytes) {
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_TRUE(set_nonblocking(pair[0]));
  ASSERT_TRUE(set_nonblocking(pair[1]));
  Conn writer(pair[0]);
  Conn reader(pair[1]);

  EXPECT_EQ(writer.queue_message(golden_request()), kGoldenRequestBytes.size());
  EXPECT_EQ(writer.queue_message(golden_reply()), kGoldenReplyBytes.size());
  ASSERT_EQ(writer.flush(), Conn::Io::kOk);
  ASSERT_FALSE(writer.wants_write());

  std::vector<std::uint8_t> received;
  drain_into(reader.fd(), &received);
  std::vector<std::uint8_t> expected = kGoldenRequestBytes;
  expected.insert(expected.end(), kGoldenReplyBytes.begin(), kGoldenReplyBytes.end());
  EXPECT_EQ(received, expected);
}

TEST(Wire, QueueMessageAppendsBehindAPartlyFlushedBuffer) {
  int pair[2] = {-1, -1};
  ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, pair), 0);
  ASSERT_TRUE(set_nonblocking(pair[0]));
  ASSERT_TRUE(set_nonblocking(pair[1]));
  Conn writer(pair[0]);
  Conn reader(pair[1]);

  // More filler than the socket buffers hold: the flush stops part-way,
  // leaving the output buffer with a sent prefix and an unsent tail.
  std::vector<std::uint8_t> filler(4 * 1024 * 1024);
  for (std::size_t i = 0; i < filler.size(); ++i) filler[i] = static_cast<std::uint8_t>(i * 7);
  writer.queue(filler);
  ASSERT_EQ(writer.flush(), Conn::Io::kOk);
  ASSERT_TRUE(writer.wants_write());

  EXPECT_EQ(writer.queue_message(golden_request()), kGoldenRequestBytes.size());
  EXPECT_EQ(writer.queue_message(golden_reply()), kGoldenReplyBytes.size());

  std::vector<std::uint8_t> received;
  for (int i = 0; i < 100000 && writer.wants_write(); ++i) {
    drain_into(reader.fd(), &received);
    ASSERT_EQ(writer.flush(), Conn::Io::kOk);
  }
  ASSERT_FALSE(writer.wants_write());
  drain_into(reader.fd(), &received);

  std::vector<std::uint8_t> expected = filler;
  expected.insert(expected.end(), kGoldenRequestBytes.begin(), kGoldenRequestBytes.end());
  expected.insert(expected.end(), kGoldenReplyBytes.begin(), kGoldenReplyBytes.end());
  ASSERT_EQ(received.size(), expected.size());
  EXPECT_TRUE(received == expected);
}

TEST(Wire, ClaimSurvivesDecodeReEncode) {
  // A daemon forwarding a request decodes and re-encodes it; the claim
  // floor must come through bit-exact or Update_Entry would learn from
  // stale resolvers.
  util::Rng rng(91);
  for (int i = 0; i < 200; ++i) {
    WireMessage original;
    original.msg = random_message(rng);
    original.path = random_path(rng, rng.range(0, 8));
    std::vector<std::uint8_t> bytes;
    encode_message(original, &bytes);
    Frame decoded;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded),
              DecodeResult::kFrame);
    std::vector<std::uint8_t> reencoded;
    encode_message(decoded.message, &reencoded);
    EXPECT_EQ(reencoded, bytes);
  }
}

TEST(Wire, ControlFramesRoundTripEveryKind) {
  // SWIM and anti-entropy control messages share the message payload; every
  // kind must survive the codec with its reused fields intact.
  const sim::MessageKind kinds[] = {
      sim::MessageKind::kSwimPing,    sim::MessageKind::kSwimAck,
      sim::MessageKind::kSwimPingReq, sim::MessageKind::kSwimSuspect,
      sim::MessageKind::kSwimAlive,   sim::MessageKind::kSwimDead,
      sim::MessageKind::kRepairOffer, sim::MessageKind::kRepairReply,
  };
  util::Rng rng(44);
  for (const sim::MessageKind kind : kinds) {
    WireMessage original;
    original.msg = random_message(rng);
    original.msg.kind = kind;

    std::vector<std::uint8_t> bytes;
    encode_message(original, &bytes);

    Frame decoded;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded),
              DecodeResult::kFrame);
    EXPECT_EQ(consumed, bytes.size());
    EXPECT_EQ(decoded.type, frame_type_for(kind));
    EXPECT_EQ(kind_for(decoded.type), kind);
    expect_equal(decoded.message, original);
  }
}

TEST(Wire, HelloRoundTrip) {
  std::vector<std::uint8_t> bytes;
  encode_hello(Hello{42, sim::NodeKind::kOrigin}, &bytes);
  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded), DecodeResult::kFrame);
  EXPECT_EQ(consumed, bytes.size());
  EXPECT_EQ(decoded.type, FrameType::kHello);
  EXPECT_EQ(decoded.hello.node_id, 42);
  EXPECT_EQ(decoded.hello.kind, sim::NodeKind::kOrigin);
}

TEST(Wire, FuzzRoundTripRandomMessages) {
  util::Rng rng(20260805);
  for (int i = 0; i < 2000; ++i) {
    WireMessage original;
    original.msg = random_message(rng);
    original.path = random_path(rng, rng.index(32));
    original.body = random_body(rng, rng.index(kMaxBodyBytes + 1));
    original.checksum = rng.next();

    std::vector<std::uint8_t> bytes;
    encode_message(original, &bytes);

    Frame decoded;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded),
              DecodeResult::kFrame)
        << "iteration " << i;
    ASSERT_EQ(consumed, bytes.size());
    expect_equal(decoded.message, original);
  }
}

TEST(Wire, MaxSizePathRoundTrips) {
  util::Rng rng(7);
  WireMessage original;
  original.msg = random_message(rng);
  original.path = random_path(rng, kMaxPath);

  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);
  ASSERT_LE(bytes.size(), kLengthPrefixBytes + kMaxFramePayload);

  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded), DecodeResult::kFrame);
  expect_equal(decoded.message, original);
}

TEST(Wire, OverlongPathIsTruncatedToMostRecentEntries) {
  util::Rng rng(8);
  WireMessage original;
  original.msg = random_message(rng);
  original.path = random_path(rng, kMaxPath + 100);

  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);

  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded), DecodeResult::kFrame);
  ASSERT_EQ(decoded.message.path.size(), kMaxPath);
  const std::vector<NodeId> expected(original.path.end() - static_cast<std::ptrdiff_t>(kMaxPath),
                                     original.path.end());
  EXPECT_EQ(decoded.message.path, expected);
}

TEST(Wire, EveryTruncationIsNeedMoreNeverCorrupt) {
  util::Rng rng(99);
  WireMessage original;
  original.msg = random_message(rng);
  original.path = random_path(rng, 17);

  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);

  for (std::size_t cut = 0; cut < bytes.size(); ++cut) {
    Frame decoded;
    std::size_t consumed = 0;
    EXPECT_EQ(decode_frame(bytes.data(), cut, &consumed, &decoded), DecodeResult::kNeedMore)
        << "prefix of " << cut << " bytes";
  }
}

TEST(Wire, SplitBufferDecodesTwoFramesIncrementally) {
  util::Rng rng(5);
  WireMessage first;
  first.msg = random_message(rng);
  first.path = random_path(rng, 3);
  std::vector<std::uint8_t> bytes;
  encode_message(first, &bytes);
  const std::size_t first_size = bytes.size();
  encode_hello(Hello{6, sim::NodeKind::kClient}, &bytes);

  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded), DecodeResult::kFrame);
  ASSERT_EQ(consumed, first_size);
  expect_equal(decoded.message, first);

  ASSERT_EQ(decode_frame(bytes.data() + first_size, bytes.size() - first_size, &consumed,
                         &decoded),
            DecodeResult::kFrame);
  EXPECT_EQ(decoded.type, FrameType::kHello);
  EXPECT_EQ(decoded.hello.node_id, 6);
}

TEST(Wire, GarbageIsRejected) {
  // 8 random bytes whose length prefix stays in range but whose type byte
  // is invalid for every seed below.
  util::Rng rng(11);
  int rejected = 0;
  for (int i = 0; i < 500; ++i) {
    std::vector<std::uint8_t> junk(8 + rng.index(64));
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.next());
    Frame decoded;
    std::size_t consumed = 0;
    const DecodeResult result = decode_frame(junk.data(), junk.size(), &consumed, &decoded);
    // Random length prefixes are usually huge (> kMaxFramePayload) or
    // larger than the buffer; both must never decode as a frame.
    if (result == DecodeResult::kCorrupt) ++rejected;
    EXPECT_NE(result, DecodeResult::kFrame) << "iteration " << i;
  }
  EXPECT_GT(rejected, 0);
}

TEST(Wire, OversizeLengthPrefixIsCorrupt) {
  std::vector<std::uint8_t> bytes = {0xff, 0xff, 0xff, 0x7f, 0x01};
  Frame decoded;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded, &error),
            DecodeResult::kCorrupt);
  EXPECT_NE(error.find("kMaxFramePayload"), std::string::npos);
}

TEST(Wire, ZeroLengthPayloadIsCorrupt) {
  const std::vector<std::uint8_t> bytes = {0, 0, 0, 0};
  Frame decoded;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded),
            DecodeResult::kCorrupt);
}

TEST(Wire, UnknownFrameTypeIsCorrupt) {
  std::vector<std::uint8_t> bytes = {1, 0, 0, 0, 0x7e};
  Frame decoded;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded, &error),
            DecodeResult::kCorrupt);
  EXPECT_NE(error.find("unknown frame type"), std::string::npos);
}

TEST(Wire, PathLengthPayloadMismatchIsCorrupt) {
  WireMessage original;
  original.path = {1, 2, 3};
  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);
  // Claim a longer path than the payload carries.
  const std::size_t path_len_offset = kLengthPrefixBytes + 85;
  bytes[path_len_offset] = 200;
  Frame decoded;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded, &error),
            DecodeResult::kCorrupt);
  EXPECT_NE(error.find("path_len"), std::string::npos);
}

TEST(Wire, UnknownFlagBitsAreCorrupt) {
  WireMessage original;
  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);
  const std::size_t flags_offset = kLengthPrefixBytes + 42;
  bytes[flags_offset] = 0x80;
  Frame decoded;
  std::size_t consumed = 0;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded),
            DecodeResult::kCorrupt);
}

TEST(Wire, VersionMismatchIsRejectedNotGuessed) {
  // The v1 protocol had no version byte: the request_id started where the
  // version now sits, so any v1 frame reads as a version mismatch and a
  // mixed-version cluster fails deterministically at the first frame.
  util::Rng rng(21);
  WireMessage original;
  original.msg = random_message(rng);
  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);

  const std::size_t version_offset = kLengthPrefixBytes + 1;
  ASSERT_EQ(bytes[version_offset], kWireVersion);
  for (const std::uint8_t wrong : {std::uint8_t{1}, std::uint8_t{3}, std::uint8_t{0xff}}) {
    std::vector<std::uint8_t> mutated = bytes;
    mutated[version_offset] = wrong;
    Frame decoded;
    std::size_t consumed = 0;
    std::string error;
    EXPECT_EQ(decode_frame(mutated.data(), mutated.size(), &consumed, &decoded, &error),
              DecodeResult::kCorrupt)
        << "version " << int{wrong};
    EXPECT_NE(error.find("unsupported wire version"), std::string::npos);
  }
}

TEST(Wire, HelloVersionMismatchIsRejected) {
  std::vector<std::uint8_t> bytes;
  encode_hello(Hello{3, sim::NodeKind::kProxy}, &bytes);
  const std::size_t version_offset = kLengthPrefixBytes + 1;
  ASSERT_EQ(bytes[version_offset], kWireVersion);
  bytes[version_offset] = 1;
  Frame decoded;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded, &error),
            DecodeResult::kCorrupt);
  EXPECT_NE(error.find("unsupported wire version"), std::string::npos);
}

TEST(Wire, PayloadByteExtremesRoundTrip) {
  // The payload-bytes field must survive at every magnitude: zero (store
  // disabled), one, the largest configurable object, and all-ones.
  for (const std::uint64_t payload :
       {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{256} * 1024,
        std::uint64_t{0x8000000000000000ULL}, ~std::uint64_t{0}}) {
    WireMessage original;
    original.msg.kind = sim::MessageKind::kReply;
    original.msg.request_id = make_request_id(2, 5);
    original.msg.payload_bytes = payload;
    original.msg.degraded = payload % 2 == 1;
    original.checksum = ~payload;
    std::vector<std::uint8_t> bytes;
    encode_message(original, &bytes);
    Frame decoded;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded),
              DecodeResult::kFrame);
    EXPECT_EQ(decoded.message.msg.payload_bytes, payload);
    EXPECT_EQ(decoded.message.msg.degraded, original.msg.degraded);
    EXPECT_EQ(decoded.message.checksum, ~payload);
  }
}

TEST(Wire, BodySampleRoundTripsAndOversizeIsTruncated) {
  util::Rng rng(33);
  // Exact max size round-trips bit-for-bit.
  WireMessage original;
  original.msg = random_message(rng);
  original.body = random_body(rng, kMaxBodyBytes);
  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);
  Frame decoded;
  std::size_t consumed = 0;
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded), DecodeResult::kFrame);
  EXPECT_EQ(decoded.message.body, original.body);

  // Oversize bodies are clipped to the first kMaxBodyBytes on encode.
  WireMessage oversize;
  oversize.msg = random_message(rng);
  oversize.body = random_body(rng, kMaxBodyBytes + 57);
  bytes.clear();
  encode_message(oversize, &bytes);
  ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded), DecodeResult::kFrame);
  ASSERT_EQ(decoded.message.body.size(), kMaxBodyBytes);
  const std::vector<std::uint8_t> expected(oversize.body.begin(),
                                           oversize.body.begin() + kMaxBodyBytes);
  EXPECT_EQ(decoded.message.body, expected);
}

TEST(Wire, StoreFrameKindsRoundTrip) {
  // Erasure-tier traffic rides the same payload shape; the chunk-index
  // (resolver), presence (cached) and size (payload_bytes) reuses must
  // survive the codec for all three kinds.
  const sim::MessageKind kinds[] = {
      sim::MessageKind::kStripeStore,
      sim::MessageKind::kChunkRequest,
      sim::MessageKind::kChunkReply,
  };
  util::Rng rng(55);
  for (const sim::MessageKind kind : kinds) {
    WireMessage original;
    original.msg = random_message(rng);
    original.msg.kind = kind;
    std::vector<std::uint8_t> bytes;
    encode_message(original, &bytes);
    Frame decoded;
    std::size_t consumed = 0;
    ASSERT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded),
              DecodeResult::kFrame);
    EXPECT_EQ(decoded.type, frame_type_for(kind));
    EXPECT_EQ(kind_for(decoded.type), kind);
    expect_equal(decoded.message, original);
  }
}

TEST(Wire, BodyLengthPayloadMismatchIsCorrupt) {
  util::Rng rng(61);
  WireMessage original;
  original.msg = random_message(rng);
  original.body = random_body(rng, 16);
  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);
  // Claim a longer body than the payload carries (body_len u16 at payload
  // offset 83).
  const std::size_t body_len_offset = kLengthPrefixBytes + 83;
  bytes[body_len_offset] = 200;
  Frame decoded;
  std::size_t consumed = 0;
  std::string error;
  EXPECT_EQ(decode_frame(bytes.data(), bytes.size(), &consumed, &decoded, &error),
            DecodeResult::kCorrupt);
}

TEST(Wire, FuzzCorruptionNeverDecodesMutatedByte) {
  // Flip single bytes of a valid frame; the decoder must either reject the
  // frame or decode *something* without reading out of bounds (asan-
  // checked).  Flips in the body that decode fine are acceptable — only
  // the structural fields are protected — but flips that shrink the
  // declared sizes must never crash.
  util::Rng rng(13);
  WireMessage original;
  original.msg = random_message(rng);
  original.path = random_path(rng, 9);
  std::vector<std::uint8_t> bytes;
  encode_message(original, &bytes);

  for (int i = 0; i < 2000; ++i) {
    std::vector<std::uint8_t> mutated = bytes;
    const std::size_t at = rng.index(mutated.size());
    mutated[at] ^= static_cast<std::uint8_t>(1 + rng.index(255));
    Frame decoded;
    std::size_t consumed = 0;
    (void)decode_frame(mutated.data(), mutated.size(), &consumed, &decoded);
  }
}

}  // namespace
}  // namespace adc::net

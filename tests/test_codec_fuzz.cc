// Robustness fuzz for the POSIX wire codec: random bytes must never
// crash the decoders, valid encodings must survive random mutation
// without being mis-parsed into out-of-range values, and random valid
// messages must round-trip exactly — including field extremes and empty
// bitmap fragments — and the control-stream parser must take
// receiver-state frames off a stream that arrives in arbitrary pieces,
// ignoring foreign or damaged frames as a whole and refusing garbage. Runs
// under the asan-ubsan preset (ctest label "sanitize"), where any
// out-of-bounds read or UB aborts the test.
#include <gtest/gtest.h>

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/rng.h"
#include "fobs/posix/codec.h"

namespace fobs::posix {
namespace {

class CodecFuzz : public ::testing::TestWithParam<std::uint64_t> {};

// Draws an AckMessage whose fields hit extremes with real probability:
// every 64-bit field is either a uniform draw or one of the interesting
// boundary values, and the fragment is 0..512 bits of random bitmap.
core::AckMessage random_ack(util::Rng& rng) {
  const auto pick_i64 = [&rng]() -> std::int64_t {
    switch (rng.uniform_int(0, 4)) {
      case 0: return 0;
      case 1: return 1;
      case 2: return std::numeric_limits<std::int64_t>::max();
      case 3: return static_cast<std::int64_t>(rng.next());
      default: return rng.uniform_int(0, 1 << 20);
    }
  };
  core::AckMessage ack;
  ack.ack_no = rng.uniform_int(0, 1) != 0 ? rng.next()
                                          : std::numeric_limits<std::uint64_t>::max();
  ack.total_received = pick_i64();
  ack.frontier = pick_i64();
  ack.fragment_start = pick_i64();
  ack.fragment_bits = static_cast<std::int32_t>(rng.uniform_int(0, 512));
  ack.fragment.resize((static_cast<std::size_t>(ack.fragment_bits) + 7) / 8);
  for (auto& byte : ack.fragment) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
  ack.complete = rng.uniform_int(0, 1) != 0;
  return ack;
}

TEST_P(CodecFuzz, RandomBytesNeverCrashDecoders) {
  util::Rng rng(GetParam());
  for (int iteration = 0; iteration < 2000; ++iteration) {
    const auto len = static_cast<std::size_t>(rng.uniform_int(0, 512));
    std::vector<std::uint8_t> junk(len);
    for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.uniform_int(0, 255));
    // Either decoder may return nullopt or a value; it must not crash
    // or read out of bounds (ASAN-visible if it did).
    (void)decode_data_header(junk.data(), junk.size());
    (void)decode_ack(junk.data(), junk.size());
    (void)next_control_frame(junk.data(), junk.size(), rng.uniform_int(1, 4096));
  }
}

TEST_P(CodecFuzz, MutatedAcksEitherRejectOrStayInBounds) {
  util::Rng rng(GetParam() + 1000);
  for (int iteration = 0; iteration < 500; ++iteration) {
    core::AckMessage ack;
    ack.ack_no = rng.next();
    ack.total_received = rng.uniform_int(0, 1 << 20);
    ack.frontier = rng.uniform_int(0, 1 << 20);
    ack.fragment_start = rng.uniform_int(0, 1 << 20);
    ack.fragment_bits = static_cast<std::int32_t>(rng.uniform_int(0, 512));
    ack.fragment.resize((static_cast<std::size_t>(ack.fragment_bits) + 7) / 8);
    auto wire = encode_ack(ack);
    // Flip one random byte.
    const auto victim = static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(wire.size()) - 1));
    wire[victim] ^= static_cast<std::uint8_t>(1u << rng.uniform_int(0, 7));
    const auto decoded = decode_ack(wire.data(), wire.size());
    if (decoded) {
      // The fragment length must always be consistent with its declared
      // bit count (the invariant the receiver-side merge relies on).
      EXPECT_GE(decoded->fragment.size() * 8,
                static_cast<std::size_t>(std::max(0, static_cast<int>(decoded->fragment_bits))));
    }
  }
}

TEST_P(CodecFuzz, TruncationsAreAlwaysRejectedOrConsistent) {
  util::Rng rng(GetParam() + 2000);
  core::AckMessage ack;
  ack.fragment_bits = 256;
  ack.fragment.resize(32, 0x5A);
  const auto wire = encode_ack(ack);
  for (std::size_t cut = 0; cut < wire.size(); ++cut) {
    const auto decoded = decode_ack(wire.data(), cut);
    if (decoded) {
      EXPECT_GE(decoded->fragment.size() * 8,
                static_cast<std::size_t>(decoded->fragment_bits));
    }
  }
}

// The property the protocol relies on: encode/decode is the identity on
// every well-formed AckMessage, bit for bit, field extremes included.
TEST_P(CodecFuzz, RandomAcksRoundTripExactly) {
  util::Rng rng(GetParam() + 3000);
  for (int iteration = 0; iteration < 1000; ++iteration) {
    const auto ack = random_ack(rng);
    const auto wire = encode_ack(ack);
    const auto decoded = decode_ack(wire.data(), wire.size());
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->ack_no, ack.ack_no);
    EXPECT_EQ(decoded->total_received, ack.total_received);
    EXPECT_EQ(decoded->frontier, ack.frontier);
    EXPECT_EQ(decoded->fragment_start, ack.fragment_start);
    EXPECT_EQ(decoded->fragment_bits, ack.fragment_bits);
    EXPECT_EQ(decoded->fragment, ack.fragment);
    EXPECT_EQ(decoded->complete, ack.complete);
  }
}

TEST(CodecEdges, DataHeaderFieldExtremes) {
  for (const core::PacketSeq seq : {core::PacketSeq{0}, core::PacketSeq{1},
                                    std::numeric_limits<core::PacketSeq>::max(),
                                    core::PacketSeq{-1}}) {
    std::uint8_t buf[kDataHeaderSize];
    encode_data_header(DataHeader{seq}, buf);
    const auto decoded = decode_data_header(buf, sizeof buf);
    ASSERT_TRUE(decoded.has_value());
    EXPECT_EQ(decoded->seq, seq);
  }
}

TEST(CodecEdges, EmptyFragmentAckRoundTrips) {
  core::AckMessage ack;
  ack.ack_no = std::numeric_limits<std::uint64_t>::max();
  ack.total_received = std::numeric_limits<std::int64_t>::max();
  ack.frontier = std::numeric_limits<std::int64_t>::max();
  ack.fragment_start = 0;
  ack.fragment_bits = 0;
  ack.complete = true;
  const auto wire = encode_ack(ack);
  const auto decoded = decode_ack(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ack_no, ack.ack_no);
  EXPECT_EQ(decoded->total_received, ack.total_received);
  EXPECT_EQ(decoded->frontier, ack.frontier);
  EXPECT_TRUE(decoded->fragment.empty());
  EXPECT_TRUE(decoded->complete);
}

TEST(CodecEdges, NegativeFragmentBitsAreRejected) {
  core::AckMessage ack;
  ack.fragment_bits = 8;
  ack.fragment = {0xFF};
  auto wire = encode_ack(ack);
  // Patch the on-wire fragment_bits field (offset 40) to 0x80000000,
  // which decodes to a negative int32.
  wire[40] = 0x80;
  wire[41] = wire[42] = wire[43] = 0;
  EXPECT_FALSE(decode_ack(wire.data(), wire.size()).has_value());
}

TEST(CodecEdges, ZeroLengthBufferRejectedWithoutReads) {
  EXPECT_FALSE(decode_data_header(nullptr, 0).has_value());
  EXPECT_FALSE(decode_ack(nullptr, 0).has_value());
}

// ---------------------------------------------------------------------------
// Control stream: next_control_frame over a buffered TCP stream
// ---------------------------------------------------------------------------

void append(std::vector<std::uint8_t>& stream, const std::vector<std::uint8_t>& frame) {
  stream.insert(stream.end(), frame.begin(), frame.end());
}

constexpr std::int64_t kPackets = 20;  // a 3-byte bitmap
const std::vector<std::uint8_t> kBitmap = {0xFF, 0x0F, 0x0A};
constexpr std::size_t kFirstBitmapByte = 32;  // fixed part: 8+4+8+8+4

ReceiverState fresh(std::uint32_t epoch) { return {epoch, kPackets, 0, {}}; }
ReceiverState partial(std::uint32_t epoch) { return {epoch, kPackets, 14, kBitmap}; }
ReceiverState full(std::uint32_t epoch) { return {epoch, kPackets, kPackets, {}}; }

// Takes every frame off the head of `buffer` the way the sender does,
// stopping at the first need-more, desync or accepted completion
// (returned last).
std::vector<ControlFrame> drain(std::vector<std::uint8_t>& buffer, std::int64_t packet_count) {
  std::vector<ControlFrame> frames;
  while (true) {
    auto frame = next_control_frame(buffer.data(), buffer.size(), packet_count);
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(frame.consumed));
    const bool more = frame.kind == ControlFrameKind::kState &&
                      !(frame.state && frame.state->received_count == packet_count);
    frames.push_back(std::move(frame));
    if (!more) return frames;
  }
}

TEST(ControlStream, StateRoundTripsInEveryShape) {
  for (const auto& state : {fresh(1), partial(0xDEADBEEF), full(7)}) {
    const auto wire = encode_state(state);
    EXPECT_EQ(wire.size(), kFirstBitmapByte + state.bitmap.size() + 4);
    const auto frame = next_control_frame(wire.data(), wire.size(), kPackets);
    EXPECT_EQ(frame.kind, ControlFrameKind::kState);
    EXPECT_EQ(frame.consumed, wire.size());
    ASSERT_TRUE(frame.state.has_value());
    EXPECT_EQ(*frame.state, state);
  }
}

TEST(ControlStream, FreshPartialAndCompletionFedOneByteAtATime) {
  std::vector<std::uint8_t> stream;
  append(stream, encode_state(fresh(0xDEADBEEF)));
  append(stream, encode_state(partial(0xDEADBEEF)));
  append(stream, encode_state(full(0xDEADBEEF)));

  std::vector<std::uint8_t> buffer;
  std::vector<ControlFrame> seen;
  for (const std::uint8_t byte : stream) {
    buffer.push_back(byte);
    auto frames = drain(buffer, kPackets);
    ASSERT_LE(frames.size(), 2u);  // one frame at most completes per byte
    for (auto& frame : frames) {
      if (frame.kind != ControlFrameKind::kNeedMore) seen.push_back(std::move(frame));
    }
  }
  EXPECT_TRUE(buffer.empty());
  ASSERT_EQ(seen.size(), 3u);
  for (const auto& frame : seen) {
    EXPECT_EQ(frame.kind, ControlFrameKind::kState);
    ASSERT_TRUE(frame.state.has_value());
  }
  EXPECT_EQ(*seen[0].state, fresh(0xDEADBEEF));
  EXPECT_EQ(*seen[1].state, partial(0xDEADBEEF));
  EXPECT_EQ(*seen[2].state, full(0xDEADBEEF));
}

TEST(ControlStream, GarbageTokenIsDesync) {
  std::vector<std::uint8_t> buffer;
  append(buffer, encode_state(fresh(7)));
  const std::string junk = "GARBAGE!";
  buffer.insert(buffer.end(), junk.begin(), junk.end());
  append(buffer, encode_state(full(7)));
  const auto frames = drain(buffer, kPackets);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].kind, ControlFrameKind::kState);
  ASSERT_TRUE(frames[0].state.has_value());
  EXPECT_EQ(frames[0].state->epoch, 7u);
  // The completion after the junk is never reached: a desynced stream
  // cannot be trusted past the bad token.
  EXPECT_EQ(frames[1].kind, ControlFrameKind::kDesync);
  EXPECT_EQ(frames[1].consumed, 0u);

  auto bad_token = encode_state(partial(7));
  bad_token[0] = 'X';
  const auto frame = next_control_frame(bad_token.data(), bad_token.size(), kPackets);
  EXPECT_EQ(frame.kind, ControlFrameKind::kDesync);
  EXPECT_EQ(frame.consumed, 0u);
}

TEST(ControlStream, FramesForAnotherPacketCountAreIgnored) {
  // 17 and 20 packets both need a 3-byte bitmap, so these frames have
  // the size a 20-packet flow expects but describe another transfer:
  // neither the bitmap nor the completion may reach the sender.
  std::vector<std::uint8_t> buffer;
  append(buffer, encode_state({5, 17, 5, {0x1F, 0x00, 0x00}}));
  append(buffer, encode_state({5, 17, 17, {}}));
  append(buffer, encode_state(full(9)));
  const auto frames = drain(buffer, kPackets);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].kind, ControlFrameKind::kState);
  EXPECT_EQ(frames[0].consumed, encode_state(partial(5)).size());
  EXPECT_FALSE(frames[0].state.has_value());
  EXPECT_EQ(frames[1].kind, ControlFrameKind::kState);
  EXPECT_EQ(frames[1].consumed, encode_state(full(5)).size());
  EXPECT_FALSE(frames[1].state.has_value()) << "a foreign completion must be ignored";
  EXPECT_EQ(frames[2].kind, ControlFrameKind::kState);
  ASSERT_TRUE(frames[2].state.has_value());
  EXPECT_EQ(*frames[2].state, full(9));
  EXPECT_TRUE(buffer.empty());
}

TEST(ControlStream, CorruptedFrameIsIgnoredAsAWhole) {
  const auto wire = encode_state(partial(0x01020304));
  // One byte in each field after the token: epoch, packet_count,
  // received_count, the bitmap and the CRC itself.
  for (const std::size_t pos : {std::size_t{9}, std::size_t{15}, std::size_t{25},
                                kFirstBitmapByte, wire.size() - 1}) {
    auto copy = wire;
    copy[pos] ^= 0x40;
    const auto frame = next_control_frame(copy.data(), copy.size(), kPackets);
    EXPECT_EQ(frame.kind, ControlFrameKind::kState) << "flipped byte " << pos;
    EXPECT_EQ(frame.consumed, wire.size()) << "flipped byte " << pos;
    EXPECT_FALSE(frame.state.has_value()) << "flipped byte " << pos;
  }
  // Truncation consumes nothing and waits for the rest.
  const auto truncated = next_control_frame(wire.data(), wire.size() - 1, kPackets);
  EXPECT_EQ(truncated.kind, ControlFrameKind::kNeedMore);
  EXPECT_EQ(truncated.consumed, 0u);
}

TEST(ControlStream, CorruptFrameIsIgnoredAndTheStreamStaysAligned) {
  auto corrupt = encode_state(partial(13));
  corrupt[kFirstBitmapByte] ^= 0x01;  // a bitmap bit, caught by the CRC
  std::vector<std::uint8_t> buffer;
  append(buffer, corrupt);
  append(buffer, encode_state(fresh(99)));
  append(buffer, encode_state(full(99)));
  const auto frames = drain(buffer, kPackets);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].kind, ControlFrameKind::kState);
  EXPECT_FALSE(frames[0].state.has_value());
  EXPECT_EQ(frames[1].kind, ControlFrameKind::kState);
  ASSERT_TRUE(frames[1].state.has_value());
  EXPECT_EQ(frames[1].state->epoch, 99u);
  EXPECT_EQ(frames[2].kind, ControlFrameKind::kState);
  ASSERT_TRUE(frames[2].state.has_value());
  EXPECT_EQ(frames[2].state->received_count, kPackets);
}

TEST(ControlStream, BitmapLengthOfAnotherFlowIsDesync) {
  // 100 packets need 13 bitmap bytes; claim 100 but attach 3. The frame
  // cannot be sized, so the stream is lost.
  const auto wire = encode_state({1, 100, 13, kBitmap});
  const auto frame = next_control_frame(wire.data(), wire.size(), 100);
  EXPECT_EQ(frame.kind, ControlFrameKind::kDesync);
  EXPECT_EQ(frame.consumed, 0u);
}

TEST(ControlStream, InconsistentStatesAreIgnored) {
  // Sealed and sized for this flow, but not a state a receiver sends.
  const std::vector<ReceiverState> inconsistent = {
      {0, kPackets, 14, kBitmap},                  // epoch zero
      {1, kPackets, 14, {}},                       // partial without a bitmap
      {1, kPackets, 0, kBitmap},                   // bitmap with nothing held
      {1, kPackets, kPackets, kBitmap},            // bitmap with everything held
      {1, kPackets, kPackets + 1, {}},             // more than the flow has
      {1, kPackets, -1, {}},                       // negative count
  };
  for (const auto& state : inconsistent) {
    const auto wire = encode_state(state);
    const auto frame = next_control_frame(wire.data(), wire.size(), kPackets);
    EXPECT_EQ(frame.kind, ControlFrameKind::kState) << state.received_count;
    EXPECT_EQ(frame.consumed, wire.size()) << state.received_count;
    EXPECT_FALSE(frame.state.has_value()) << state.received_count;
  }
}

TEST(ControlStream, IncompleteFramesNeedMoreAndConsumeNothing) {
  const auto fresh_wire = encode_state(fresh(1));
  const auto partial_wire = encode_state(partial(1));
  const auto full_wire = encode_state(full(1));
  const std::vector<std::vector<std::uint8_t>> partials = {
      {},
      {fresh_wire.begin(), fresh_wire.begin() + 7},                // token cut
      {partial_wire.begin(), partial_wire.begin() + 31},           // length cut
      {fresh_wire.begin(), fresh_wire.end() - 1},
      {partial_wire.begin(), partial_wire.end() - 1},
      {full_wire.begin(), full_wire.end() - 1},
  };
  for (const auto& cut : partials) {
    const auto frame = next_control_frame(cut.data(), cut.size(), kPackets);
    EXPECT_EQ(frame.kind, ControlFrameKind::kNeedMore) << cut.size() << " bytes";
    EXPECT_EQ(frame.consumed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace fobs::posix

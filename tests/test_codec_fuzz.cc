// Robustness fuzz for the POSIX wire codec: random bytes must never
// crash the decoders, valid encodings must survive random mutation
// without being mis-parsed into out-of-range values, and random valid
// messages must round-trip exactly — including field extremes and empty
// bitmap fragments — and the control-stream parser must take hello,
// resume and completion frames off a stream that arrives in arbitrary
// pieces, ignoring foreign resume frames and refusing garbage. Runs
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

void append(std::vector<std::uint8_t>& stream, const auto& frame) {
  stream.insert(stream.end(), frame.begin(), frame.end());
}

// Takes every frame off the head of `buffer` the way the sender does,
// stopping at the first need-more, completion or desync (returned last).
std::vector<ControlFrame> drain(std::vector<std::uint8_t>& buffer, std::int64_t packet_count) {
  std::vector<ControlFrame> frames;
  while (true) {
    auto frame = next_control_frame(buffer.data(), buffer.size(), packet_count);
    buffer.erase(buffer.begin(), buffer.begin() + static_cast<std::ptrdiff_t>(frame.consumed));
    const ControlFrameKind kind = frame.kind;
    frames.push_back(std::move(frame));
    if (kind != ControlFrameKind::kHello && kind != ControlFrameKind::kResume) return frames;
  }
}

TEST(ControlStream, HelloResumeCompletionFedOneByteAtATime) {
  constexpr std::int64_t kPackets = 20;
  const std::vector<std::uint8_t> bitmap = {0xFF, 0x0F, 0x0A};
  std::vector<std::uint8_t> stream;
  append(stream, encode_hello(0xDEADBEEF));
  append(stream, encode_resume(kPackets, 14, bitmap));
  append(stream, encode_completion());

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
  EXPECT_EQ(seen[0].kind, ControlFrameKind::kHello);
  EXPECT_EQ(seen[0].epoch, 0xDEADBEEFu);
  EXPECT_EQ(seen[1].kind, ControlFrameKind::kResume);
  ASSERT_TRUE(seen[1].resume.has_value());
  EXPECT_EQ(seen[1].resume->packet_count, kPackets);
  EXPECT_EQ(seen[1].resume->received_count, 14);
  EXPECT_EQ(seen[1].resume->bitmap, bitmap);
  EXPECT_EQ(seen[2].kind, ControlFrameKind::kCompletion);
}

TEST(ControlStream, GarbageTokenIsDesync) {
  std::vector<std::uint8_t> buffer;
  append(buffer, encode_hello(7));
  const std::string junk = "GARBAGE!";
  buffer.insert(buffer.end(), junk.begin(), junk.end());
  append(buffer, encode_completion());
  const auto frames = drain(buffer, 20);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].kind, ControlFrameKind::kHello);
  EXPECT_EQ(frames[0].epoch, 7u);
  // The completion after the junk is never reached: a desynced stream
  // cannot be trusted past the bad token.
  EXPECT_EQ(frames[1].kind, ControlFrameKind::kDesync);
  EXPECT_EQ(frames[1].consumed, 0u);
}

TEST(ControlStream, ResumeForAnotherPacketCountIsIgnored) {
  // 17 and 20 packets both need a 3-byte bitmap, so the frame has the
  // size a 20-packet flow expects but describes another transfer.
  std::vector<std::uint8_t> buffer;
  append(buffer, encode_resume(17, 5, {0x1F, 0x00, 0x00}));
  append(buffer, encode_completion());
  const auto frames = drain(buffer, 20);
  ASSERT_EQ(frames.size(), 2u);
  EXPECT_EQ(frames[0].kind, ControlFrameKind::kResume);
  EXPECT_EQ(frames[0].consumed, resume_frame_size(20));
  EXPECT_FALSE(frames[0].resume.has_value());
  EXPECT_EQ(frames[1].kind, ControlFrameKind::kCompletion);
}

TEST(ControlStream, CorruptResumeIsIgnoredAndTheStreamStaysAligned) {
  auto resume = encode_resume(20, 13, {0xFF, 0x0F, 0xA0});
  resume[kResumeFixedSize] ^= 0x01;  // a bitmap bit, caught by the CRC
  std::vector<std::uint8_t> buffer;
  append(buffer, resume);
  append(buffer, encode_hello(99));
  append(buffer, encode_completion());
  const auto frames = drain(buffer, 20);
  ASSERT_EQ(frames.size(), 3u);
  EXPECT_EQ(frames[0].kind, ControlFrameKind::kResume);
  EXPECT_FALSE(frames[0].resume.has_value());
  EXPECT_EQ(frames[1].kind, ControlFrameKind::kHello);
  EXPECT_EQ(frames[1].epoch, 99u);
  EXPECT_EQ(frames[2].kind, ControlFrameKind::kCompletion);
}

TEST(ControlStream, IncompleteFramesNeedMoreAndConsumeNothing) {
  const auto hello = encode_hello(1);
  const auto resume = encode_resume(20, 0, {0, 0, 0});
  const auto completion = encode_completion();
  const std::vector<std::vector<std::uint8_t>> partials = {
      {},
      {completion.begin(), completion.end() - 1},
      {hello.begin(), hello.end() - 1},
      {resume.begin(), resume.end() - 1},
  };
  for (const auto& partial : partials) {
    const auto frame = next_control_frame(partial.data(), partial.size(), 20);
    EXPECT_EQ(frame.kind, ControlFrameKind::kNeedMore) << partial.size() << " bytes";
    EXPECT_EQ(frame.consumed, 0u);
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, CodecFuzz, ::testing::Values(1, 2, 3));

}  // namespace
}  // namespace fobs::posix

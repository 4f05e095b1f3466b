// Unit tests for the robustness building blocks: the fault-plan
// grammar and injector, the CRC-32C helper, ACK decode hardening, and
// the checkpoint sidecar format.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/codec.h"
#include "net/faults.h"

namespace fobs {
namespace {

using net::FaultAction;
using net::FaultChannel;
using net::FaultInjector;
using net::FaultPlan;

// ---------------------------------------------------------------------------
// CRC-32C
// ---------------------------------------------------------------------------

// Bit at a time, straight from the polynomial: the reference both
// table/instruction paths must agree with.
std::uint32_t crc32c_bitwise(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  std::uint32_t c = ~seed;
  for (std::size_t i = 0; i < len; ++i) {
    c ^= data[i];
    for (int bit = 0; bit < 8; ++bit) c = (c & 1u) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
  }
  return ~c;
}

TEST(Crc32, MatchesKnownVectors) {
  // The standard CRC-32C check value, then RFC 3720 appendix B.4.
  const std::uint8_t check[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  std::uint8_t zeros[32] = {};
  std::uint8_t ones[32];
  std::uint8_t ascending[32];
  std::uint8_t descending[32];
  for (std::uint8_t i = 0; i < 32; ++i) {
    ones[i] = 0xFF;
    ascending[i] = i;
    descending[i] = static_cast<std::uint8_t>(31 - i);
  }
  for (const auto crc : {util::crc32, util::crc32_portable}) {
    EXPECT_EQ(crc(check, sizeof check, 0), 0xE3069283u);
    EXPECT_EQ(crc(nullptr, 0, 0), 0u);
    EXPECT_EQ(crc(zeros, 4, 0), 0x48674BC7u);
    EXPECT_EQ(crc(zeros, 32, 0), 0x8A9136AAu);
    EXPECT_EQ(crc(ones, 32, 0), 0x62A8AB43u);
    EXPECT_EQ(crc(ascending, 32, 0), 0x46DD794Eu);
    EXPECT_EQ(crc(descending, 32, 0), 0x113FDB5Cu);
  }
}

TEST(Crc32, BothPathsMatchBitwiseReferenceOnRandomSplits) {
  util::Rng rng(0xC5C32);
  std::vector<std::uint8_t> buffer(9000 + 8);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next());
  for (int round = 0; round < 300; ++round) {
    const std::size_t offset = rng.next() % 8;  // every word alignment
    const std::size_t len = rng.next() % 9001;
    const std::uint8_t* data = buffer.data() + offset;
    const std::uint32_t seed = round % 3 == 0 ? 0u : static_cast<std::uint32_t>(rng.next());
    const auto expected = crc32c_bitwise(data, len, seed);
    for (const auto crc : {util::crc32, util::crc32_portable}) {
      ASSERT_EQ(crc(data, len, seed), expected) << "offset " << offset << " len " << len;
      // The same stream fed in up to three pieces, split at random.
      const std::size_t a = len == 0 ? 0 : rng.next() % (len + 1);
      const std::size_t b = a + (len == a ? 0 : rng.next() % (len - a + 1));
      std::uint32_t chained = crc(data, a, seed);
      chained = crc(data + a, b - a, chained);
      chained = crc(data + b, len - b, chained);
      ASSERT_EQ(chained, expected) << "offset " << offset << " len " << len << " split " << a
                                   << "/" << b;
    }
  }
}

TEST(Crc32, SeedChainsIncrementalComputation) {
  const std::uint8_t data[] = {10, 20, 30, 40, 50, 60};
  const auto whole = util::crc32(data, sizeof data);
  const auto first = util::crc32(data, 3);
  EXPECT_EQ(util::crc32(data + 3, 3, first), whole);
}

// The object CRC is folded from per-packet CRCs: combining the pieces'
// CRCs must give the whole buffer's, on both paths, for random cuts
// (zero-length pieces included) and for equal packets with a short last
// one folded the way a receive flow folds them.
TEST(Crc32, CombineMatchesWholeBufferOnRandomSplits) {
  util::Rng rng(0xC0B1);
  std::vector<std::uint8_t> buffer(70'000);
  for (auto& byte : buffer) byte = static_cast<std::uint8_t>(rng.next());
  EXPECT_EQ(util::crc32_combine(0, 0, 0), 0u);
  for (int round = 0; round < 200; ++round) {
    const std::size_t len = rng.next() % (buffer.size() + 1);
    const std::uint8_t* data = buffer.data();
    for (const auto crc : {util::crc32, util::crc32_portable}) {
      const auto whole = crc(data, len, 0);
      // Up to six pieces at random cuts; repeated cuts make empty pieces.
      std::vector<std::size_t> cuts = {0, len};
      for (int i = 0; i < 5; ++i) cuts.push_back(len == 0 ? 0 : rng.next() % (len + 1));
      if (round % 5 == 0) cuts.push_back(cuts.back());
      std::sort(cuts.begin(), cuts.end());
      std::uint32_t folded = 0;
      for (std::size_t i = 1; i < cuts.size(); ++i) {
        const std::size_t piece = cuts[i] - cuts[i - 1];
        folded = util::crc32_combine(folded, crc(data + cuts[i - 1], piece, 0), piece);
      }
      ASSERT_EQ(folded, whole) << "len " << len;

      // Equal packets through Crc32Append, the short last one through
      // crc32_combine.
      const std::size_t packet = 1 + rng.next() % 9000;
      const util::Crc32Append append(packet);
      std::uint32_t packets = 0;
      std::size_t at = 0;
      for (; at + packet <= len; at += packet) {
        packets = append(packets, crc(data + at, packet, 0));
      }
      packets = util::crc32_combine(packets, crc(data + at, len - at, 0), len - at);
      ASSERT_EQ(packets, whole) << "len " << len << " packet " << packet;
    }
  }
}

// The data-packet seal is crc32(header, crc32(payload)): a receiver
// that checks it has the payload's own CRC on the way, and a flipped
// seq bit still breaks it.
TEST(PacketSeal, SealsThePayloadThenTheHeaderIncludingTheSeq) {
  util::Rng rng(0x5EA1);
  std::vector<std::uint8_t> payload(1000);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next());
  std::uint8_t header[posix::kDataHeaderSize];
  posix::encode_data_header({123456}, header);
  posix::seal_data_header(header, payload.data(), payload.size());
  const auto sealed = posix::decode_data_header(header, sizeof header);
  ASSERT_TRUE(sealed.has_value());
  const auto payload_crc = util::crc32(payload.data(), payload.size());
  EXPECT_EQ(sealed->crc, util::crc32(header, posix::kDataSealedHeaderBytes, payload_crc));
  EXPECT_EQ(posix::packet_crc(header, payload_crc), sealed->crc);
  for (std::size_t bit = 64; bit < 8 * posix::kDataSealedHeaderBytes; ++bit) {  // the seq
    header[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(posix::packet_crc(header, payload_crc), sealed->crc) << "seq bit " << bit - 64;
    header[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(1024, 0xA5);
  const auto clean = util::crc32(data.data(), data.size());
  for (const std::size_t pos : {std::size_t{0}, std::size_t{511}, data.size() - 1}) {
    data[pos] ^= 0x01;
    EXPECT_NE(util::crc32(data.data(), data.size()), clean);
    data[pos] ^= 0x01;
  }
}

// ---------------------------------------------------------------------------
// FaultPlan grammar
// ---------------------------------------------------------------------------

TEST(FaultPlan, EmptyStringIsEmptyPlan) {
  const auto plan = FaultPlan::parse("");
  ASSERT_TRUE(plan.has_value());
  EXPECT_TRUE(plan->empty());
}

TEST(FaultPlan, ParsesFullGrammar) {
  const auto plan =
      FaultPlan::parse("seed=7;data.corrupt=0.01;data.drop=0.05;ack.dup=0.5;"
                       "ack.blackhole=8+16;control.drop=1;crash=3000");
  ASSERT_TRUE(plan.has_value());
  EXPECT_EQ(plan->seed, 7u);
  EXPECT_DOUBLE_EQ(plan->data.corrupt, 0.01);
  EXPECT_DOUBLE_EQ(plan->data.drop, 0.05);
  EXPECT_DOUBLE_EQ(plan->ack.duplicate, 0.5);
  EXPECT_EQ(plan->ack.blackhole_start, 8);
  EXPECT_EQ(plan->ack.blackhole_count, 16);
  EXPECT_DOUBLE_EQ(plan->control.drop, 1.0);
  EXPECT_EQ(plan->crash_at_packet, 3000);
  EXPECT_FALSE(plan->empty());
}

TEST(FaultPlan, RoundTripsThroughToString) {
  const auto plan =
      FaultPlan::parse("seed=42;data.corrupt=0.25;ack.blackhole=0+4;crash=10");
  ASSERT_TRUE(plan.has_value());
  const auto reparsed = FaultPlan::parse(plan->to_string());
  ASSERT_TRUE(reparsed.has_value());
  EXPECT_EQ(reparsed->seed, plan->seed);
  EXPECT_DOUBLE_EQ(reparsed->data.corrupt, plan->data.corrupt);
  EXPECT_EQ(reparsed->ack.blackhole_start, plan->ack.blackhole_start);
  EXPECT_EQ(reparsed->ack.blackhole_count, plan->ack.blackhole_count);
  EXPECT_EQ(reparsed->crash_at_packet, plan->crash_at_packet);
}

TEST(FaultPlan, ParsesPlainDecimalsOnly) {
  // The grammar is locale-independent plain decimals: no locale's
  // comma separator, no exponent notation.
  const auto plan = FaultPlan::parse("data.corrupt=0.25;ack.drop=.5;control.dup=1");
  ASSERT_TRUE(plan.has_value());
  EXPECT_DOUBLE_EQ(plan->data.corrupt, 0.25);
  EXPECT_DOUBLE_EQ(plan->ack.drop, 0.5);
  EXPECT_DOUBLE_EQ(plan->control.duplicate, 1.0);
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=0,25").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=1e-2").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=.").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=").has_value());
}

TEST(FaultPlan, RejectsMalformedInput) {
  std::string error;
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=1.5", &error).has_value());
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(FaultPlan::parse("data.corrupt=-0.1").has_value());
  EXPECT_FALSE(FaultPlan::parse("bogus=1").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.bogus=1").has_value());
  EXPECT_FALSE(FaultPlan::parse("tcp.drop=0.5").has_value());
  EXPECT_FALSE(FaultPlan::parse("data.drop").has_value());
  EXPECT_FALSE(FaultPlan::parse("ack.blackhole=8").has_value());
  EXPECT_FALSE(FaultPlan::parse("ack.blackhole=8+0").has_value());
  EXPECT_FALSE(FaultPlan::parse("crash=-1").has_value());
  EXPECT_FALSE(FaultPlan::parse("seed=notanumber").has_value());
}

// ---------------------------------------------------------------------------
// FaultInjector
// ---------------------------------------------------------------------------

TEST(FaultInjector, ScheduleIsDeterministicPerSeed) {
  const auto plan = FaultPlan::parse("seed=9;data.corrupt=0.2;data.drop=0.2;data.dup=0.2");
  ASSERT_TRUE(plan.has_value());
  FaultInjector a(*plan);
  FaultInjector b(*plan);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_EQ(a.next(FaultChannel::kData), b.next(FaultChannel::kData)) << "packet " << i;
  }
  EXPECT_GT(a.total_injected(), 0);
  EXPECT_EQ(a.total_injected(), b.total_injected());
}

TEST(FaultInjector, ChannelsAreIndependentOfInterleaving) {
  const auto plan = FaultPlan::parse("seed=5;data.drop=0.3;ack.drop=0.3");
  ASSERT_TRUE(plan.has_value());
  // Injector A: all data packets first, then all ACK packets.
  FaultInjector a(*plan);
  std::vector<FaultAction> a_data, a_ack;
  for (int i = 0; i < 200; ++i) a_data.push_back(a.next(FaultChannel::kData));
  for (int i = 0; i < 200; ++i) a_ack.push_back(a.next(FaultChannel::kAck));
  // Injector B: interleaved. The per-channel sequences must not change.
  FaultInjector b(*plan);
  std::vector<FaultAction> b_data, b_ack;
  for (int i = 0; i < 200; ++i) {
    b_ack.push_back(b.next(FaultChannel::kAck));
    b_data.push_back(b.next(FaultChannel::kData));
  }
  EXPECT_EQ(a_data, b_data);
  EXPECT_EQ(a_ack, b_ack);
}

TEST(FaultInjector, BlackholeWindowDropsExactRange) {
  const auto plan = FaultPlan::parse("ack.blackhole=3+4");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  for (int i = 0; i < 10; ++i) {
    const auto action = injector.next(FaultChannel::kAck);
    if (i >= 3 && i < 7) {
      EXPECT_EQ(action, FaultAction::kDrop) << "packet " << i;
    } else {
      EXPECT_EQ(action, FaultAction::kPass) << "packet " << i;
    }
  }
  EXPECT_EQ(injector.stats(FaultChannel::kAck).dropped, 4);
  EXPECT_EQ(injector.stats(FaultChannel::kAck).seen, 10);
}

TEST(FaultInjector, CrashTriggersAfterNDataPackets) {
  const auto plan = FaultPlan::parse("crash=5");
  ASSERT_TRUE(plan.has_value());
  FaultInjector injector(*plan);
  for (int i = 0; i < 5; ++i) {
    EXPECT_FALSE(injector.crash_due()) << "packet " << i;
    injector.next(FaultChannel::kData);
  }
  EXPECT_TRUE(injector.crash_due());
  // ACK traffic does not advance the crash counter.
  FaultInjector ack_only(*plan);
  for (int i = 0; i < 50; ++i) ack_only.next(FaultChannel::kAck);
  EXPECT_FALSE(ack_only.crash_due());
}

TEST(FaultInjector, CleanPlanNeverInjects) {
  FaultInjector injector(FaultPlan{});
  for (int i = 0; i < 500; ++i) {
    EXPECT_EQ(injector.next(FaultChannel::kData), FaultAction::kPass);
  }
  EXPECT_EQ(injector.total_injected(), 0);
}

// ---------------------------------------------------------------------------
// decode_ack hardening (hostile fragment_bits)
// ---------------------------------------------------------------------------

TEST(AckHardening, RejectsAbsurdFragmentBits) {
  core::AckMessage ack;
  ack.fragment_bits = 8;
  ack.fragment = {0xFF};
  auto wire = posix::encode_ack(ack);
  // Patch fragment_bits (offset 40, big-endian u32) to a value no
  // datagram could carry; the decoder must bail before allocating.
  const std::uint32_t absurd = static_cast<std::uint32_t>(posix::kMaxAckFragmentBits + 1);
  wire[40] = static_cast<std::uint8_t>(absurd >> 24);
  wire[41] = static_cast<std::uint8_t>(absurd >> 16);
  wire[42] = static_cast<std::uint8_t>(absurd >> 8);
  wire[43] = static_cast<std::uint8_t>(absurd);
  EXPECT_FALSE(posix::decode_ack(wire.data(), wire.size()).has_value());
}

TEST(AckHardening, RoundTripsReceiverEpoch) {
  core::AckMessage ack;
  ack.ack_no = 7;
  ack.epoch = 0xDEADBEEFu;
  ack.fragment_bits = 8;
  ack.fragment = {0xFF};
  const auto wire = posix::encode_ack(ack);
  const auto decoded = posix::decode_ack(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->epoch, 0xDEADBEEFu);
  EXPECT_EQ(decoded->ack_no, 7u);
  EXPECT_EQ(decoded->fragment, ack.fragment);
}

TEST(AckHardening, AcceptsMaximumLegitimateFragment) {
  core::AckMessage ack;
  ack.fragment_bits = 1024;
  ack.fragment = std::vector<std::uint8_t>(128, 0x55);
  const auto wire = posix::encode_ack(ack);
  EXPECT_TRUE(posix::decode_ack(wire.data(), wire.size()).has_value());
}

// ---------------------------------------------------------------------------
// Checkpoint sidecar
// ---------------------------------------------------------------------------

class CheckpointTest : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = ::testing::TempDir() + "fobs_checkpoint_test_" +
            std::to_string(reinterpret_cast<std::uintptr_t>(this)) + ".ckpt";
    posix::remove_checkpoint(path_);
  }
  void TearDown() override { posix::remove_checkpoint(path_); }

  std::string path_;
};

TEST_F(CheckpointTest, SaveLoadRoundTrip) {
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = 100 * 1024;
  checkpoint.packet_bytes = 1024;
  checkpoint.received_count = 42;
  checkpoint.bitmap = std::vector<std::uint8_t>(13, 0xAB);
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));
  const auto loaded = posix::load_checkpoint(path_);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(loaded->object_bytes, checkpoint.object_bytes);
  EXPECT_EQ(loaded->packet_bytes, checkpoint.packet_bytes);
  EXPECT_EQ(loaded->received_count, checkpoint.received_count);
  EXPECT_EQ(loaded->bitmap, checkpoint.bitmap);
  EXPECT_EQ(loaded->packet_count(), 100);
}

TEST_F(CheckpointTest, MissingFileLoadsNothing) {
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());
}

TEST_F(CheckpointTest, RejectsTornOrTamperedFile) {
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = 8 * 1024;
  checkpoint.packet_bytes = 1024;
  checkpoint.received_count = 3;
  checkpoint.bitmap = {0x07};
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));

  // Flip one bitmap byte in place: the CRC seal must catch it.
  {
    std::fstream file(path_, std::ios::binary | std::ios::in | std::ios::out);
    file.seekp(40);
    const char tampered = 0x0F;
    file.write(&tampered, 1);
  }
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());

  // A truncated (torn) file is rejected as well.
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));
  {
    std::ifstream in(path_, std::ios::binary);
    std::vector<char> bytes((std::istreambuf_iterator<char>(in)),
                            std::istreambuf_iterator<char>());
    bytes.resize(bytes.size() - 2);
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());

  // A foreign file (wrong magic) never parses.
  {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    const std::string junk(64, 'x');
    out.write(junk.data(), static_cast<std::streamsize>(junk.size()));
  }
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());
}

TEST_F(CheckpointTest, RemoveDeletesTheFile) {
  posix::Checkpoint checkpoint;
  checkpoint.object_bytes = 1024;
  checkpoint.packet_bytes = 1024;
  checkpoint.received_count = 1;
  checkpoint.bitmap = {0x01};
  ASSERT_TRUE(posix::save_checkpoint(path_, checkpoint));
  posix::remove_checkpoint(path_);
  EXPECT_FALSE(posix::load_checkpoint(path_).has_value());
}

}  // namespace
}  // namespace fobs

// Integration + property tests: whole FOBS transfers over the simulated
// testbeds, swept across ack frequencies, packet sizes, and loss rates.
#include <gtest/gtest.h>

#include <tuple>

#include "exp/runner.h"
#include "exp/testbeds.h"
#include "fobs/sim_transfer.h"

namespace fobs {
namespace {

using core::SimTransferConfig;
using core::run_sim_transfer;
using exp::PathId;
using exp::Testbed;

SimTransferConfig small_transfer(std::int64_t megabytes = 4) {
  SimTransferConfig config;
  config.spec.object_bytes = megabytes * 1024 * 1024;
  config.spec.packet_bytes = 1024;
  config.receiver.ack_frequency = 64;
  return config;
}

TEST(FobsTransferSim, CompletesOnShortHaul) {
  Testbed bed(PathId::kShortHaul);
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), small_transfer());
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
  EXPECT_EQ(result.packets_needed, 4 * 1024);
  EXPECT_GE(result.packets_sent, result.packets_needed);
  // ~90% of the 100 Mb/s NIC in the paper; allow generous slack here.
  EXPECT_GT(result.fraction_of(bed.spec().max_bandwidth), 0.6);
  EXPECT_LT(result.waste, 0.5);
}

TEST(FobsTransferSim, CompletesOnLongHaulWithLoss) {
  Testbed bed(PathId::kLongHaul);
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), small_transfer());
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
  EXPECT_GT(result.fraction_of(bed.spec().max_bandwidth), 0.5);
}

TEST(FobsTransferSim, SenderLearnsCompletionAfterReceiver) {
  Testbed bed(PathId::kShortHaul);
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), small_transfer(1));
  ASSERT_TRUE(result.completed);
  EXPECT_GE(result.sender_elapsed.ns(), result.receiver_elapsed.ns());
  // The completion signal needs about one way of the RTT.
  EXPECT_LT((result.sender_elapsed - result.receiver_elapsed).seconds(), 0.2);
}

TEST(FobsTransferSim, TinyAckFrequencyStallsTheReceiver) {
  // Figure 1's left edge: acking every packet makes the receiver spend
  // its time building ACKs; arrivals overflow the socket buffer.
  Testbed bed(PathId::kShortHaul);
  auto config = small_transfer();
  config.receiver.ack_frequency = 1;
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.receiver_socket_drops, 0u);
  Testbed bed2(PathId::kShortHaul);
  auto good = small_transfer();
  good.receiver.ack_frequency = 64;
  const auto baseline = run_sim_transfer(bed2.network(), bed2.src(), bed2.dst(), good);
  EXPECT_LT(result.goodput_mbps, 0.8 * baseline.goodput_mbps);
  EXPECT_GT(result.waste, baseline.waste);
}

TEST(FobsTransferSim, GreedySenderKeepsNicSaturatedDespiteLoss) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 5e-3;  // 0.5% random loss — TCP would crumble
  Testbed bed(spec);
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), small_transfer());
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
  EXPECT_GT(result.fraction_of(spec.max_bandwidth), 0.7);
  EXPECT_GT(result.waste, 0.0);  // the lost packets had to be resent
}

TEST(FobsTransferSim, SizeOnlyModeMatchesDataMode) {
  // carry_data=false must not change protocol dynamics.
  Testbed bed1(PathId::kShortHaul);
  auto with_data = small_transfer(2);
  with_data.carry_data = true;
  const auto a = run_sim_transfer(bed1.network(), bed1.src(), bed1.dst(), with_data);
  Testbed bed2(PathId::kShortHaul);
  auto size_only = small_transfer(2);
  size_only.carry_data = false;
  const auto b = run_sim_transfer(bed2.network(), bed2.src(), bed2.dst(), size_only);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.receiver_elapsed.ns(), b.receiver_elapsed.ns());
  EXPECT_FALSE(b.data_verified);  // not applicable
}

TEST(FobsTransferSim, DeterministicForSameSeed) {
  Testbed bed1(PathId::kLongHaul, 9);
  Testbed bed2(PathId::kLongHaul, 9);
  const auto a = run_sim_transfer(bed1.network(), bed1.src(), bed1.dst(), small_transfer(2));
  const auto b = run_sim_transfer(bed2.network(), bed2.src(), bed2.dst(), small_transfer(2));
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.receiver_elapsed.ns(), b.receiver_elapsed.ns());
  EXPECT_EQ(a.acks_sent, b.acks_sent);
}

TEST(FobsTransferSim, AdaptiveVariantCompletesAndVerifies) {
  Testbed bed(PathId::kGigabitContended);
  auto config = small_transfer(8);
  config.adaptive.enabled = true;
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
}

// ---------------------------------------------------------------------------
// Property sweep: every combination of (path, ack frequency, packet
// size, extra loss) must complete with byte-exact data, non-negative
// waste, and sent >= needed.
// ---------------------------------------------------------------------------

using SweepParam = std::tuple<PathId, std::int64_t /*ack_freq*/, std::int64_t /*pkt*/,
                              double /*loss*/>;

class FobsTransferSweep : public ::testing::TestWithParam<SweepParam> {};

TEST_P(FobsTransferSweep, CompletesByteExact) {
  const auto [path, ack_frequency, packet_bytes, loss] = GetParam();
  auto spec = exp::spec_for(path);
  spec.fwd_loss = std::max(spec.fwd_loss, loss);
  Testbed bed(spec, /*seed=*/17);

  SimTransferConfig config;
  config.spec.object_bytes = 2 * 1024 * 1024;
  config.spec.packet_bytes = packet_bytes;
  config.receiver.ack_frequency = ack_frequency;
  config.receiver_socket_buffer_bytes = 256 * 1024;
  config.carry_data = true;

  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed) << "path=" << to_string(path) << " F=" << ack_frequency
                                << " pkt=" << packet_bytes << " loss=" << loss;
  EXPECT_TRUE(result.data_verified);
  EXPECT_GE(result.packets_sent, result.packets_needed);
  EXPECT_GE(result.waste, 0.0);
  EXPECT_GT(result.goodput_mbps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Grid, FobsTransferSweep,
    ::testing::Combine(::testing::Values(PathId::kShortHaul, PathId::kLongHaul,
                                         PathId::kGigabitOc12),
                       ::testing::Values<std::int64_t>(1, 32, 1024),
                       ::testing::Values<std::int64_t>(512, 1024, 8192),
                       ::testing::Values(0.0, 1e-3)));

}  // namespace
}  // namespace fobs

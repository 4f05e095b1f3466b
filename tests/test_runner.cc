// Tests for the uniform experiment runners.
#include <gtest/gtest.h>

#include "exp/runner.h"

namespace fobs::exp {
namespace {

TEST(Runner, DefaultSeedsAreDistinctAndStable) {
  const auto five = default_seeds(5);
  ASSERT_EQ(five.size(), 5u);
  for (std::size_t i = 0; i < five.size(); ++i) {
    EXPECT_EQ(five[i], i + 1);
  }
  EXPECT_EQ(default_seeds(2), (std::vector<std::uint64_t>{1, 2}));
}

TEST(Runner, MakeFobsConfigForwardsEveryField) {
  FobsRunParams params;
  params.object_bytes = 123456;
  params.packet_bytes = 512;
  params.ack_frequency = 7;
  params.batch_size = 5;
  params.selection = core::SelectionKind::kRandomUnacked;
  params.batch_policy = core::BatchPolicy::kAckAdaptive;
  params.receiver_socket_buffer_bytes = 12345;
  params.carry_data = true;
  params.adaptive.enabled = true;
  const auto config = make_fobs_config(params);
  EXPECT_EQ(config.spec.object_bytes, 123456);
  EXPECT_EQ(config.spec.packet_bytes, 512);
  EXPECT_EQ(config.receiver.ack_frequency, 7);
  EXPECT_EQ(config.sender.batch_size, 5);
  EXPECT_EQ(config.sender.selection, core::SelectionKind::kRandomUnacked);
  EXPECT_EQ(config.sender.batch_policy, core::BatchPolicy::kAckAdaptive);
  EXPECT_EQ(config.receiver_socket_buffer_bytes, 12345);
  EXPECT_TRUE(config.carry_data);
  EXPECT_TRUE(config.adaptive.enabled);
}

TEST(Runner, FobsAveragedAggregatesAcrossSeeds) {
  auto spec = spec_for(PathId::kShortHaul);
  FobsRunParams params;
  params.object_bytes = 2 * 1024 * 1024;
  const auto avg = run_fobs_averaged(spec, params, {1, 2, 3});
  EXPECT_EQ(avg.completed_runs, 3);
  EXPECT_GT(avg.fraction, 0.5);
  EXPECT_GE(avg.waste, 0.0);
  EXPECT_GT(avg.goodput_mbps, 0.0);
}

TEST(Runner, FobsRunIsDeterministicPerSeed) {
  const auto spec = spec_for(PathId::kLongHaul);
  FobsRunParams params;
  params.object_bytes = 2 * 1024 * 1024;
  const auto a = run_fobs(spec, params, 4);
  const auto b = run_fobs(spec, params, 4);
  EXPECT_EQ(a.packets_sent, b.packets_sent);
  EXPECT_EQ(a.receiver_elapsed.ns(), b.receiver_elapsed.ns());
}

TEST(Runner, TcpAveragedCountsOnlyCompletedRuns) {
  auto spec = spec_for(PathId::kShortHaul);
  const auto avg = run_tcp_averaged(spec, 2 * 1024 * 1024, baselines::tcp_with_lwe(), {1, 2});
  EXPECT_EQ(avg.completed_runs, 2);
  EXPECT_GT(avg.goodput_mbps, 0.0);
}

TEST(Runner, PaperConstantsMatchThePaper) {
  EXPECT_EQ(kPaperObjectBytes, 40ll * 1024 * 1024);
  EXPECT_EQ(kPaperPacketBytes, 1024);
}

}  // namespace
}  // namespace fobs::exp

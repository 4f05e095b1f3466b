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
  const auto avg = average_over_seeds(
      spec, {1, 2, 3}, [&](std::uint64_t seed) { return run_fobs(spec, params, seed); });
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
  const auto avg = average_over_seeds(spec, {1, 2}, [&](std::uint64_t seed) {
    return run_tcp(spec, 2 * 1024 * 1024, baselines::tcp_with_lwe(), 1, seed);
  });
  EXPECT_EQ(avg.completed_runs, 2);
  EXPECT_GT(avg.goodput_mbps, 0.0);
  EXPECT_EQ(avg.waste, 0.0);
}

TEST(Runner, SeedAverageSumsInSeedOrderAndSkipsIncompleteRuns) {
  const auto spec = spec_for(PathId::kShortHaul);
  // Seed i returns run i; the middle run did not complete.
  baselines::TcpRunResult results[3];
  for (int i = 0; i < 3; ++i) {
    results[i].completed = i != 1;
    results[i].goodput_mbps = 10.0 * (i + 1);
    results[i].retransmissions = 3 + static_cast<std::uint64_t>(i);
    results[i].timeouts = 1 + static_cast<std::uint64_t>(i);
  }
  const auto avg = average_over_seeds(spec, {0, 1, 2},
                                      [&](std::uint64_t seed) { return results[seed]; });
  EXPECT_EQ(avg.completed_runs, 2);
  EXPECT_EQ(avg.goodput_mbps, 20.0);
  EXPECT_EQ(avg.fraction, (results[0].fraction_of(spec.max_bandwidth) +
                           results[2].fraction_of(spec.max_bandwidth)) /
                              2);
  // Counts are totals over the completed runs.
  EXPECT_EQ(avg.retransmissions, 8u);
  EXPECT_EQ(avg.timeouts, 4u);
}

TEST(Runner, RunProtocolFobsRowIsRunFobsOnTheSameTestbed) {
  const auto spec = spec_for(PathId::kLongHaul);
  ProtocolKnobs knobs;
  knobs.object_mib = 2;
  Testbed bed(spec, 4);
  const auto row = run_protocol(bed, Protocol::kFobs, knobs);
  FobsRunParams params;
  params.object_bytes = 2 * 1024 * 1024;
  const auto direct = run_fobs(spec, params, 4);
  EXPECT_EQ(row.protocol, "FOBS");
  EXPECT_EQ(row.completed, direct.completed);
  EXPECT_EQ(row.goodput_mbps, direct.goodput_mbps);
  EXPECT_EQ(row.fraction, direct.fraction_of(spec.max_bandwidth));
  EXPECT_EQ(row.elapsed_s, direct.receiver_elapsed.seconds());
}

TEST(Runner, RunProtocolRunsAllFiveAndNamesTheirRows) {
  ProtocolKnobs knobs;
  knobs.object_mib = 1;
  knobs.streams = 4;
  const std::pair<Protocol, const char*> cases[] = {
      {Protocol::kFobs, "FOBS"},           {Protocol::kRudp, "RUDP"},
      {Protocol::kSabul, "SABUL"},         {Protocol::kPsockets, "PSockets-4"},
      {Protocol::kTcp, "TCP+LWE"},
  };
  for (const auto& [protocol, name] : cases) {
    Testbed bed(PathId::kShortHaul, 1);
    const auto row = run_protocol(bed, protocol, knobs);
    EXPECT_EQ(row.protocol, name);
    EXPECT_TRUE(row.completed) << name;
    EXPECT_GT(row.fraction, 0.0) << name;
    EXPECT_GT(row.elapsed_s, 0.0) << name;
    EXPECT_FALSE(row.notes.empty()) << name;
  }
  knobs.no_lwe = true;
  Testbed bed(PathId::kShortHaul, 1);
  EXPECT_EQ(run_protocol(bed, Protocol::kTcp, knobs).protocol, "TCP (64K wnd)");
}

TEST(Runner, PaperConstantsMatchThePaper) {
  EXPECT_EQ(kPaperObjectBytes, 40ll * 1024 * 1024);
  EXPECT_EQ(kPaperPacketBytes, 1024);
}

}  // namespace
}  // namespace fobs::exp

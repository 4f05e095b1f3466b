// Tests for the §7 TCP-fallback mode of the FOBS sim driver.
#include <gtest/gtest.h>

#include <memory>

#include "exp/testbeds.h"
#include "fobs/sim_transfer.h"
#include "sim/cross_traffic.h"
#include "telemetry/trace.h"

namespace fobs {
namespace {

struct FallbackRun {
  bool done = false;
  int episodes = 0;
  std::int64_t via_tcp = 0;
  bool receiver_complete = false;
  std::int64_t packets_needed = 0;
  std::int64_t packets_sent = 0;
  /// Data packets sent over UDP: the sum of the sender's batch sizes.
  std::int64_t udp_sends = 0;
  double waste = 0.0;
  std::int64_t corrupt_acks_dropped = 0;
  std::int64_t corrupt_drops_traced = 0;
};

FallbackRun run_with_overload(bool tcp_fallback, int extra_sources,
                              util::Duration episode_end = util::Duration::zero(),
                              const std::string& fault_plan = "") {
  auto spec = exp::spec_for(exp::PathId::kGigabitContended);
  spec.cross_sources = 8;
  spec.cross_peak = util::DataRate::megabits_per_second(150);
  exp::Testbed bed(spec, 7);
  auto& sim = bed.sim();

  std::vector<std::unique_ptr<sim::OnOffSource>> extra;
  for (int i = 0; i < extra_sources; ++i) {
    auto source = std::make_unique<sim::OnOffSource>(
        sim, bed.backbone(), bed.network().next_node_id(), bed.cross_sink().id(), 1000,
        util::DataRate::megabits_per_second(150), util::Duration::milliseconds(40),
        util::Duration::milliseconds(120), util::Rng(55 + i));
    source->start();
    extra.push_back(std::move(source));
  }
  if (episode_end > util::Duration::zero()) {
    sim.schedule_in(episode_end, [&extra] {
      for (auto& source : extra) source->stop();
    });
  }

  core::SimTransferConfig config;
  config.spec = {16 * 1024 * 1024, 1024};
  config.adaptive.enabled = true;
  config.adaptive.tcp_fallback = tcp_fallback;
  config.timeout = util::Duration::seconds(300);
  config.carry_data = false;
  // The plan's ack.* schedule runs at the receiver; the sender's tracer
  // sees the corrupt ACKs it drops on the UDP and the fallback path.
  config.fault_plan = *net::FaultPlan::parse(fault_plan);
  telemetry::EventTracer tracer;
  config.sender_tracer = &tracer;
  const auto result = core::run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);

  FallbackRun run;
  run.done = result.completed;
  run.episodes = result.fallback_episodes;
  run.via_tcp = result.packets_via_tcp;
  run.receiver_complete = result.receiver_complete;
  run.packets_needed = result.packets_needed;
  run.packets_sent = result.packets_sent;
  for (const auto& event : tracer.snapshot()) {
    if (event.type == telemetry::EventType::kBatchSent) run.udp_sends += event.value;
  }
  EXPECT_EQ(tracer.dropped(), 0u) << "udp_sends needs every batch event";
  run.waste = result.waste;
  // The plans here corrupt only ACKs, so every corrupt drop is an ACK
  // the sender rejected.
  run.corrupt_acks_dropped = result.corrupt_drops;
  run.corrupt_drops_traced = tracer.count(telemetry::EventType::kCorruptDrop);
  return run;
}

TEST(FobsTcpFallback, EngagesUnderHeavyCongestionAndCompletes) {
  const auto run = run_with_overload(/*tcp_fallback=*/true, /*extra_sources=*/4);
  EXPECT_TRUE(run.done);
  EXPECT_TRUE(run.receiver_complete);
  EXPECT_GE(run.episodes, 1);
  EXPECT_GT(run.via_tcp, 0);
}

TEST(FobsTcpFallback, DisabledFallbackNeverUsesTcp) {
  const auto run = run_with_overload(/*tcp_fallback=*/false, /*extra_sources=*/4);
  EXPECT_TRUE(run.done);
  EXPECT_EQ(run.episodes, 0);
  EXPECT_EQ(run.via_tcp, 0);
}

TEST(FobsTcpFallback, TransientEpisodeStillCompletesExactly) {
  const auto run = run_with_overload(/*tcp_fallback=*/true, /*extra_sources=*/6,
                                     util::Duration::milliseconds(500));
  EXPECT_TRUE(run.done);
  EXPECT_TRUE(run.receiver_complete);
  EXPECT_GE(run.waste, 0.0);
}

TEST(FobsTcpFallback, PacketsSentAndWasteCountBothChannels) {
  const auto run = run_with_overload(/*tcp_fallback=*/true, /*extra_sources=*/4);
  ASSERT_TRUE(run.done);
  ASSERT_GT(run.via_tcp, 0);
  EXPECT_GT(run.udp_sends, 0);
  EXPECT_EQ(run.packets_sent, run.udp_sends + run.via_tcp);
  const auto needed = static_cast<double>(run.packets_needed);
  EXPECT_DOUBLE_EQ(run.waste, (static_cast<double>(run.packets_sent) - needed) / needed);
}

TEST(FobsTcpFallback, CorruptAcksAreTracedOnTheUdpAndTheFallbackPath) {
  const auto run = run_with_overload(/*tcp_fallback=*/true, /*extra_sources=*/6,
                                     util::Duration::zero(), "seed=9;ack.corrupt=0.05");
  EXPECT_TRUE(run.done);
  EXPECT_GE(run.episodes, 1);
  EXPECT_GT(run.corrupt_acks_dropped, 0);
  EXPECT_EQ(run.corrupt_drops_traced, run.corrupt_acks_dropped);
}

}  // namespace
}  // namespace fobs

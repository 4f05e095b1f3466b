// Tests for the §7 TCP-fallback mode of the FOBS sim driver.
#include <gtest/gtest.h>

#include <memory>

#include "exp/testbeds.h"
#include "fobs/sim_transfer.h"
#include "host/host.h"
#include "sim/cross_traffic.h"
#include "sim/link.h"
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
  std::int64_t corrupt_drops = 0;
  std::int64_t corrupt_drops_traced = 0;
};

/// The contended gigabit path with `extra_sources` more 150 Mb/s on/off
/// sources on its backbone.
struct OverloadedPath {
  static exp::TestbedSpec contended() {
    auto spec = exp::spec_for(exp::PathId::kGigabitContended);
    spec.cross_sources = 8;
    spec.cross_peak = util::DataRate::megabits_per_second(150);
    return spec;
  }

  explicit OverloadedPath(int extra_sources) : bed(contended(), 7) {
    for (int i = 0; i < extra_sources; ++i) {
      auto source = std::make_unique<sim::OnOffSource>(
          bed.sim(), bed.backbone(), bed.network().next_node_id(), bed.cross_sink().id(), 1000,
          util::DataRate::megabits_per_second(150), util::Duration::milliseconds(40),
          util::Duration::milliseconds(120), util::Rng(55 + i));
      source->start();
      extra.push_back(std::move(source));
    }
  }

  exp::Testbed bed;
  std::vector<std::unique_ptr<sim::OnOffSource>> extra;
};

/// A 16 MiB size-only transfer with the §7 controller on.
core::SimTransferConfig adaptive_transfer(bool tcp_fallback) {
  core::SimTransferConfig config;
  config.spec = {16 * 1024 * 1024, 1024};
  config.adaptive.enabled = true;
  config.adaptive.tcp_fallback = tcp_fallback;
  config.timeout = util::Duration::seconds(300);
  config.carry_data = false;
  return config;
}

FallbackRun run_with_overload(bool tcp_fallback, int extra_sources,
                              util::Duration episode_end = util::Duration::zero(),
                              const std::string& fault_plan = "") {
  OverloadedPath path(extra_sources);
  auto& bed = path.bed;
  if (episode_end > util::Duration::zero()) {
    bed.sim().schedule_in(episode_end, [&path] {
      for (auto& source : path.extra) source->stop();
    });
  }

  auto config = adaptive_transfer(tcp_fallback);
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
  run.corrupt_drops = result.corrupt_drops;
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
  EXPECT_GT(run.corrupt_drops, 0);
  EXPECT_EQ(run.corrupt_drops_traced, run.corrupt_drops);
}

TEST(FobsTcpFallback, ATransferCutWhileOnTcpSendsNoSegmentAfterItsEnd) {
  // The overload never lifts, so the transfer is still on TCP when its
  // deadline cuts it, with a window of segments in flight. A second
  // transfer, between two more hosts on links of their own, keeps the
  // run going past that end. From 1 ms after it on, neither testbed
  // host's NIC may be offered another packet (the cross traffic enters
  // at the backbone).
  OverloadedPath path(/*extra_sources=*/6);
  auto& bed = path.bed;
  auto& net = bed.network();
  const host::HostConfig side_host;
  auto& side_a = host::Host::create(net, side_host);
  auto& side_b = host::Host::create(net, side_host);
  sim::LinkConfig side_link;
  side_link.rate = util::DataRate::megabits_per_second(100);
  side_link.propagation_delay = util::Duration::milliseconds(1);
  side_link.queue_capacity_bytes = 256 * 1024;
  auto& a_to_b = net.add_link(side_link);
  auto& b_to_a = net.add_link(side_link);
  a_to_b.set_sink(&side_b);
  b_to_a.set_sink(&side_a);
  side_a.set_egress(&a_to_b);
  side_b.set_egress(&b_to_a);

  auto cut = adaptive_transfer(/*tcp_fallback=*/true);
  cut.timeout = util::Duration::seconds(1);
  telemetry::EventTracer tracer;
  cut.sender_tracer = &tracer;
  core::SimTransferConfig side;
  side.spec = {32 * 1024 * 1024, 1024};
  side.carry_data = false;

  const auto after_end = bed.sim().now() + cut.timeout + util::Duration::milliseconds(1);
  bool sampled = false;
  std::uint64_t src_offered = 0;
  std::uint64_t dst_offered = 0;
  bed.sim().schedule_at(after_end, [&] {
    sampled = true;
    src_offered = bed.src().egress()->stats().packets_offered;
    dst_offered = bed.dst().egress()->stats().packets_offered;
  });
  const auto results =
      core::run_sim_transfers(net, {{bed.src(), bed.dst(), cut}, {side_a, side_b, side}});
  ASSERT_FALSE(results[0].completed);
  ASSERT_GT(results[0].packets_via_tcp, 0);
  ASSERT_GT(tracer.count(telemetry::EventType::kFallbackEnter),
            tracer.count(telemetry::EventType::kFallbackExit))
      << "the cut transfer must end on TCP";
  ASSERT_TRUE(results[1].completed);
  ASSERT_TRUE(sampled) << "the run ended before " << after_end.seconds() << " s";
  EXPECT_EQ(bed.src().egress()->stats().packets_offered, src_offered);
  EXPECT_EQ(bed.dst().egress()->stats().packets_offered, dst_offered);
}

}  // namespace
}  // namespace fobs

// Tests for the §7 TCP-fallback mode of the FOBS sim driver.
#include <gtest/gtest.h>

#include <memory>

#include "exp/testbeds.h"
#include "fobs/sim_driver.h"
#include "net/faults.h"
#include "sim/cross_traffic.h"
#include "telemetry/trace.h"

namespace fobs {
namespace {

struct FallbackRun {
  bool done = false;
  int episodes = 0;
  std::int64_t via_tcp = 0;
  bool receiver_complete = false;
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

  core::TransferSpec transfer{16 * 1024 * 1024, 1024};
  core::SenderConfig sender_config;
  sender_config.adaptive.enabled = true;
  sender_config.adaptive.tcp_fallback = tcp_fallback;
  core::ReceiverConfig receiver_config;

  core::SimSender sender(bed.src(), transfer, sender_config, nullptr, bed.dst().id());
  core::SimReceiver receiver(bed.dst(), transfer, receiver_config, nullptr, bed.src().id(),
                             64 * 1024);
  // The plan's ack.* schedule runs at the receiver; the sender's tracer
  // sees the corrupt ACKs it drops on the UDP and the fallback path.
  net::FaultInjector faults(*net::FaultPlan::parse(fault_plan));
  telemetry::EventTracer tracer;
  if (!fault_plan.empty()) {
    receiver.set_fault_injector(&faults);
    sender.set_tracer(&tracer);
  }
  FallbackRun run;
  sender.set_on_finished([&run] { run.done = true; });
  receiver.start();
  sender.start();
  while (!run.done && sim.now().seconds() < 300 && sim.step()) {
  }
  run.episodes = sender.fallback_episodes();
  run.via_tcp = sender.packets_sent_via_tcp();
  run.receiver_complete = receiver.complete();
  run.waste = sender.core().waste();
  run.corrupt_acks_dropped = sender.corrupt_acks_dropped();
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

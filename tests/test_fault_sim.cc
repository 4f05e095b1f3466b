// Fault-injection over the simulated testbeds: corruption and ACK
// blackholes must not damage delivered bytes, and a transfer that stops
// progressing must give up via stall detection (stall events, then a
// timeout), not just a wall-clock deadline.
#include <gtest/gtest.h>

#include <algorithm>

#include "exp/testbeds.h"
#include "fobs/sim_transfer.h"
#include "net/faults.h"
#include "telemetry/trace.h"

namespace fobs {
namespace {

using core::SimTransferConfig;
using core::run_sim_transfer;
using exp::PathId;
using exp::Testbed;
using telemetry::EventType;

SimTransferConfig small_transfer(std::int64_t kilobytes = 1024) {
  SimTransferConfig config;
  config.spec.object_bytes = kilobytes * 1024;
  config.spec.packet_bytes = 1024;
  config.receiver.ack_frequency = 64;
  return config;
}

net::FaultPlan plan_of(const std::string& spec) {
  std::string error;
  const auto plan = net::FaultPlan::parse(spec, &error);
  EXPECT_TRUE(plan.has_value()) << error;
  return plan.value_or(net::FaultPlan{});
}

TEST(FaultSim, CorruptionAndAckBlackholeStillDeliverCleanBytes) {
  // 1% of data packets arrive with a failing checksum and the first few
  // ACKs (about one RTT window of acking) are blackholed. The transfer
  // must still complete, with every rejected packet re-sent and zero
  // corrupted bytes written into the object.
  Testbed bed(PathId::kShortHaul);
  auto config = small_transfer();
  config.fault_plan = plan_of("seed=42;data.corrupt=0.01;ack.blackhole=0+4");
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);  // byte-exact despite the damage
  EXPECT_GT(result.corrupt_drops, 0);
  // Every corrupted packet forced at least one retransmission.
  EXPECT_GT(result.packets_sent, result.packets_needed);
  EXPECT_FALSE(result.stalled);
}

TEST(FaultSim, CorruptDropsAreDeterministicPerSeed) {
  auto run_once = [] {
    Testbed bed(PathId::kShortHaul);
    auto config = small_transfer(256);
    config.fault_plan = plan_of("seed=7;data.corrupt=0.02");
    return run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  };
  const auto first = run_once();
  const auto second = run_once();
  ASSERT_TRUE(first.completed);
  ASSERT_TRUE(second.completed);
  EXPECT_EQ(first.corrupt_drops, second.corrupt_drops);
  EXPECT_EQ(first.packets_sent, second.packets_sent);
}

TEST(FaultSim, BlackholedTransferGivesUpViaStallDetection) {
  // Every data packet vanishes: neither side ever progresses. The run
  // must end through the stall budget — kStallIntervals empty checks
  // on each side — with both traces ending stall -> timeout.
  Testbed bed(PathId::kShortHaul);
  telemetry::EventTracer sender_trace;
  telemetry::EventTracer receiver_trace;
  auto config = small_transfer(64);
  config.fault_plan = plan_of("data.blackhole=0+100000000");
  config.timeout = util::Duration::milliseconds(400);
  config.sender_tracer = &sender_trace;
  config.receiver_tracer = &receiver_trace;
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.stalled);
  // The give-up is interval-counted, not wall-clock: exactly the stall
  // budget of empty checks fired on each side.
  EXPECT_EQ(sender_trace.count(EventType::kStall), core::kStallIntervals);
  EXPECT_EQ(receiver_trace.count(EventType::kStall), core::kStallIntervals);
  for (const auto* trace : {&sender_trace, &receiver_trace}) {
    const auto events = trace->snapshot();
    ASSERT_GE(events.size(), 2u);
    EXPECT_EQ(events[events.size() - 2].type, EventType::kStall);
    EXPECT_EQ(events.back().type, EventType::kTimeout);
  }
}

TEST(FaultSim, ReceiverCrashStallsTheSender) {
  // The receiver dies partway through (peer-crash-at-packet-N); the
  // sender keeps retransmitting into silence and must eventually give
  // up through stall detection rather than hanging forever.
  Testbed bed(PathId::kShortHaul);
  telemetry::EventTracer sender_trace;
  auto config = small_transfer(64);
  config.fault_plan = plan_of("crash=16");
  config.timeout = util::Duration::milliseconds(400);
  config.sender_tracer = &sender_trace;
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  EXPECT_FALSE(result.completed);
  EXPECT_TRUE(result.stalled);
  EXPECT_FALSE(result.data_verified);
  EXPECT_EQ(sender_trace.count(EventType::kStall), core::kStallIntervals);
}

TEST(FaultSim, AStalledTransferLeavesItsNeighboursIntact) {
  // Three concurrent transfers over one testbed; the middle one's
  // receiver crashes. Stall detection must end that transfer alone:
  // the other two, large enough to outlast its 400 ms budget, still
  // complete with verified bytes.
  Testbed bed(PathId::kShortHaul);
  telemetry::EventTracer crashed_trace;
  auto crashing = small_transfer(64);
  crashing.fault_plan = plan_of("crash=16");
  crashing.timeout = util::Duration::milliseconds(400);
  crashing.sender_tracer = &crashed_trace;
  const auto clean = small_transfer(4096);
  const auto results = core::run_sim_transfers(bed.network(), {{bed.src(), bed.dst(), clean},
                                                               {bed.src(), bed.dst(), crashing},
                                                               {bed.src(), bed.dst(), clean}});
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i : {0u, 2u}) {
    EXPECT_TRUE(results[i].completed) << "transfer " << i;
    EXPECT_TRUE(results[i].data_verified) << "transfer " << i;
    EXPECT_EQ(results[i].corrupt_drops, 0) << "transfer " << i;
    EXPECT_FALSE(results[i].stalled) << "transfer " << i;
    EXPECT_GT(results[i].sender_elapsed, crashing.timeout) << "transfer " << i;
  }
  EXPECT_TRUE(results[1].stalled);
  EXPECT_FALSE(results[1].completed);
  EXPECT_FALSE(results[1].data_verified);
  EXPECT_EQ(crashed_trace.count(EventType::kStall), core::kStallIntervals);
}

TEST(FaultSim, AStalledTransferSendsNothingAfterItsEnd) {
  // The same three transfers: once stall detection ends the middle one,
  // its endpoints stop, so its sender stamps no batch after the timeout
  // event that marks its end, though its neighbours run on past it.
  Testbed bed(PathId::kShortHaul);
  telemetry::EventTracer crashed_trace;
  auto crashing = small_transfer(64);
  crashing.fault_plan = plan_of("crash=16");
  crashing.timeout = util::Duration::milliseconds(400);
  crashing.sender_tracer = &crashed_trace;
  const auto clean = small_transfer(4096);
  const auto results = core::run_sim_transfers(bed.network(), {{bed.src(), bed.dst(), clean},
                                                               {bed.src(), bed.dst(), crashing},
                                                               {bed.src(), bed.dst(), clean}});
  ASSERT_EQ(results.size(), 3u);
  ASSERT_TRUE(results[1].stalled);
  ASSERT_GT(results[0].sender_elapsed, crashing.timeout);
  ASSERT_EQ(crashed_trace.dropped(), 0u);
  const auto events = crashed_trace.snapshot();
  const auto end = std::find_if(events.begin(), events.end(), [](const telemetry::Event& e) {
    return e.type == EventType::kTimeout;
  });
  ASSERT_NE(end, events.end());
  EXPECT_GT(crashed_trace.count(EventType::kBatchSent), 0);
  const auto late = std::count_if(events.begin(), events.end(), [&](const telemetry::Event& e) {
    return e.type == EventType::kBatchSent && e.t_ns > end->t_ns;
  });
  EXPECT_EQ(late, 0) << "batches sent after the transfer ended at " << end->t_ns << " ns";
}

TEST(FaultSim, AFaultPlanAppliesOnlyToItsOwnTransfer) {
  // Two concurrent transfers, only the first with a corrupting plan:
  // its injector must damage its packets alone.
  Testbed bed(PathId::kShortHaul);
  auto damaged = small_transfer(256);
  damaged.fault_plan = plan_of("seed=7;data.corrupt=0.02");
  const auto clean = small_transfer(256);
  const auto results = core::run_sim_transfers(
      bed.network(), {{bed.src(), bed.dst(), damaged}, {bed.src(), bed.dst(), clean}});
  ASSERT_EQ(results.size(), 2u);
  for (const auto& result : results) {
    EXPECT_TRUE(result.completed);
    EXPECT_TRUE(result.data_verified);
  }
  EXPECT_GT(results[0].corrupt_drops, 0);
  EXPECT_EQ(results[1].corrupt_drops, 0);
}

TEST(FaultSim, EmptyPlanMatchesCleanRunExactly) {
  // A default-constructed plan must be a true no-op: same packet counts
  // as a run with no plan at all (the golden regressions depend on it).
  auto run_with = [](bool with_plan) {
    Testbed bed(PathId::kShortHaul);
    auto config = small_transfer(256);
    if (with_plan) config.fault_plan = net::FaultPlan{};
    return run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  };
  const auto clean = run_with(false);
  const auto with_empty_plan = run_with(true);
  ASSERT_TRUE(clean.completed);
  ASSERT_TRUE(with_empty_plan.completed);
  EXPECT_EQ(clean.packets_sent, with_empty_plan.packets_sent);
  EXPECT_EQ(clean.acks_sent, with_empty_plan.acks_sent);
  EXPECT_EQ(clean.corrupt_drops, 0);
  EXPECT_EQ(with_empty_plan.corrupt_drops, 0);
}

}  // namespace
}  // namespace fobs

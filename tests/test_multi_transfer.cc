// Concurrent FOBS transfers between the same host pair (distinct port
// bases): they must all complete, share the NIC, and contend for the
// hosts' CPUs; each ends at its own deadline, before any event due there.
#include <gtest/gtest.h>

#include <algorithm>
#include <vector>

#include "exp/testbeds.h"
#include "fobs/sim_driver.h"
#include "fobs/sim_transfer.h"
#include "telemetry/trace.h"

namespace fobs {
namespace {

using exp::PathId;
using exp::Testbed;

/// Runs `count` concurrent transfers of `object_bytes` each from the
/// short-haul testbed's source to its destination.
std::vector<core::SimTransferResult> run_concurrent(int count, std::int64_t object_bytes) {
  Testbed bed(PathId::kShortHaul);
  core::SimTransferConfig config;
  config.spec = {object_bytes, 1024};
  config.timeout = util::Duration::seconds(300);
  config.carry_data = false;
  const std::vector<core::SimTransfer> transfers(static_cast<std::size_t>(count),
                                                 {bed.src(), bed.dst(), config});
  return core::run_sim_transfers(bed.network(), transfers);
}

double run_flows(int count, double* sum_seconds = nullptr) {
  double last = 0.0;
  double sum = 0.0;
  for (const auto& run : run_concurrent(count, 4 * 1024 * 1024)) {
    if (!run.completed || !run.receiver_complete) return -1.0;
    last = std::max(last, run.receiver_elapsed.seconds());
    sum += run.receiver_elapsed.seconds();
  }
  if (sum_seconds != nullptr) *sum_seconds = sum;
  return last;
}

TEST(MultiTransfer, TwoConcurrentFlowsBothComplete) {
  const double t = run_flows(2);
  ASSERT_GT(t, 0.0);
}

TEST(MultiTransfer, ConcurrentFlowsShareTheNic) {
  const double one = run_flows(1);
  const double two = run_flows(2);
  ASSERT_GT(one, 0.0);
  ASSERT_GT(two, 0.0);
  // Two 4 MB objects through one 100 Mb/s NIC take roughly twice as
  // long as one; allow slack for interleaving effects.
  EXPECT_GT(two, 1.6 * one);
  EXPECT_LT(two, 2.6 * one);
}

TEST(MultiTransfer, FourFlowsFairAndComplete) {
  const auto runs = run_concurrent(4, 2 * 1024 * 1024);
  int done = 0;
  for (const auto& run : runs) done += run.completed ? 1 : 0;
  ASSERT_EQ(done, 4);
  // Completion times should be clustered (greedy flows through one
  // queue still round-robin fairly thanks to the shared NIC pacing).
  double lo = 1e9, hi = 0;
  for (const auto& run : runs) {
    const double t = run.receiver_elapsed.seconds();
    lo = std::min(lo, t);
    hi = std::max(hi, t);
  }
  EXPECT_LT(hi / lo, 1.6);
}

TEST(MultiTransfer, NoTransfersReturnsNoResults) {
  Testbed bed(PathId::kShortHaul);
  const auto before = bed.sim().now();
  EXPECT_TRUE(core::run_sim_transfers(bed.network(), {}).empty());
  EXPECT_EQ(bed.sim().now(), before);
}

TEST(MultiTransfer, ResultsComeBackInInputOrder) {
  // Three objects of different sizes, started together: result i must
  // describe transfer i (its packet count, its bytes), whatever order
  // they finish in.
  Testbed bed(PathId::kShortHaul);
  const std::int64_t kilobytes[] = {2048, 512, 1024};
  std::vector<core::SimTransfer> transfers;
  for (const std::int64_t kb : kilobytes) {
    core::SimTransferConfig config;
    config.spec = {kb * 1024, 1024};
    config.timeout = util::Duration::seconds(300);
    transfers.push_back({bed.src(), bed.dst(), config});
  }
  const auto results = core::run_sim_transfers(bed.network(), transfers);
  ASSERT_EQ(results.size(), 3u);
  for (std::size_t i = 0; i < results.size(); ++i) {
    EXPECT_TRUE(results[i].completed) << "transfer " << i;
    EXPECT_TRUE(results[i].data_verified) << "transfer " << i;
    EXPECT_EQ(results[i].packets_needed, kilobytes[i]) << "transfer " << i;
  }
  // The smallest object finishes before the largest, though it started
  // after it.
  EXPECT_LT(results[1].receiver_elapsed, results[0].receiver_elapsed);
}

TEST(MultiTransfer, EachTransferKeepsItsOwnDeadline) {
  // Transfer 0 cannot move 4 MB in 100 ms; it must end at its own
  // deadline (still progressing, so not stalled) while transfer 1,
  // under the default budget, runs on to a verified finish.
  Testbed bed(PathId::kShortHaul);
  core::SimTransferConfig hurried;
  hurried.spec = {4 * 1024 * 1024, 1024};
  hurried.timeout = util::Duration::milliseconds(100);
  core::SimTransferConfig patient;
  patient.spec = {1024 * 1024, 1024};
  patient.timeout = util::Duration::seconds(300);
  const auto results = core::run_sim_transfers(
      bed.network(), {{bed.src(), bed.dst(), hurried}, {bed.src(), bed.dst(), patient}});
  ASSERT_EQ(results.size(), 2u);
  EXPECT_FALSE(results[0].completed);
  EXPECT_FALSE(results[0].receiver_complete);
  EXPECT_FALSE(results[0].stalled);
  EXPECT_GT(results[0].packets_sent, 0);
  EXPECT_TRUE(results[1].completed);
  EXPECT_TRUE(results[1].data_verified);
  EXPECT_GT(results[1].sender_elapsed, hurried.timeout);
}

TEST(MultiTransfer, NoEventAtOrPastADeadlineRunsForItsTransfer) {
  // 4 MB cannot move in 100 ms, so the run is cut at the deadline while
  // events are still due. The first of them at or past the deadline
  // must not run: the clock stops short of it, no batch is stamped
  // there, and the packets counted are the batches traced before it.
  Testbed bed(PathId::kShortHaul);
  telemetry::EventTracer trace;
  core::SimTransferConfig hurried;
  hurried.spec = {4 * 1024 * 1024, 1024};
  hurried.timeout = util::Duration::milliseconds(100);
  hurried.sender_tracer = &trace;
  const auto deadline = bed.sim().now() + hurried.timeout;
  const auto result = core::run_sim_transfer(bed.network(), bed.src(), bed.dst(), hurried);
  ASSERT_FALSE(result.completed);
  EXPECT_FALSE(result.stalled);
  EXPECT_LT(bed.sim().now(), deadline);
  ASSERT_EQ(trace.dropped(), 0u);
  std::int64_t batched = 0;
  for (const auto& event : trace.snapshot()) {
    if (event.type != telemetry::EventType::kBatchSent) continue;
    EXPECT_LT(event.t_ns, deadline.ns());
    batched += event.value;
  }
  EXPECT_EQ(result.packets_sent, batched);
}

TEST(MultiTransfer, TwoRunsOnOneTestbedBothComplete) {
  // The first run's endpoints are gone when the second starts on the
  // same network: nothing they scheduled may fire into the second run.
  Testbed bed(PathId::kShortHaul);
  core::SimTransferConfig config;
  config.spec = {2 * 1024 * 1024, 1024};
  config.timeout = util::Duration::seconds(300);
  for (int run = 0; run < 2; ++run) {
    const auto result = core::run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
    EXPECT_TRUE(result.completed) << "run " << run;
    EXPECT_TRUE(result.data_verified) << "run " << run;
  }
}

TEST(DriverEvents, DestroyingTheSetCancelsWhatHasNotFired) {
  sim::Simulation sim;
  int fired = 0;
  {
    core::DriverEvents events(sim);
    events.in(util::Duration::microseconds(1), [&] { ++fired; });
    events.in(util::Duration::microseconds(10), [&] { fired += 100; });
    events.at(util::TimePoint::from_ns(util::Duration::microseconds(20).ns()),
              [&] { fired += 1000; });
    sim.run_until(util::TimePoint::from_ns(util::Duration::microseconds(5).ns()));
    ASSERT_EQ(fired, 1);
  }
  EXPECT_EQ(sim.pending_events(), 0u);
  sim.run();
  EXPECT_EQ(fired, 1);
}

}  // namespace
}  // namespace fobs

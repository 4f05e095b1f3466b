// Tests for per-host CPU reservation: co-located transfers contend for
// the core instead of each pretending to own it.
#include <gtest/gtest.h>

#include "exp/testbeds.h"
#include "fobs/sim_transfer.h"
#include "host/host.h"
#include "sim/node.h"

namespace fobs {
namespace {

using host::Host;
using host::HostConfig;
using util::Duration;
using util::TimePoint;

TEST(CpuReservation, LoneReserverGetsNowPlusCost) {
  sim::Simulation simulation;
  sim::Network net(simulation);
  auto& host = Host::create(net, HostConfig{});
  const auto done = host.reserve_cpu(Duration::microseconds(10));
  EXPECT_EQ(done.us(), 10);
}

TEST(CpuReservation, BackToBackReservationsSerialize) {
  sim::Simulation simulation;
  sim::Network net(simulation);
  auto& host = Host::create(net, HostConfig{});
  EXPECT_EQ(host.reserve_cpu(Duration::microseconds(10)).us(), 10);
  EXPECT_EQ(host.reserve_cpu(Duration::microseconds(5)).us(), 15);
  EXPECT_EQ(host.reserve_cpu(Duration::microseconds(1)).us(), 16);
}

TEST(CpuReservation, IdleGapsAreNotAccumulated) {
  sim::Simulation simulation;
  sim::Network net(simulation);
  auto& host = Host::create(net, HostConfig{});
  (void)host.reserve_cpu(Duration::microseconds(10));
  // Let simulated time pass beyond the reservation.
  simulation.run_until(TimePoint::from_ns(Duration::microseconds(100).ns()));
  EXPECT_EQ(host.reserve_cpu(Duration::microseconds(10)).us(), 110);
}

TEST(CpuReservation, NegativeCostClampsToZero) {
  sim::Simulation simulation;
  sim::Network net(simulation);
  auto& host = Host::create(net, HostConfig{});
  EXPECT_EQ(host.reserve_cpu(Duration::microseconds(-3)).ns(), 0);
}

TEST(CpuContention, ColocatedLoadSlowsACpuBoundTransfer) {
  // The gigabit testbed's receiver is CPU-bound. A co-located process
  // stealing ~50% of the destination core (in 100 us slices) must slow
  // the transfer accordingly — this only works if drivers actually
  // share the per-host CPU timeline.
  auto run_transfer = [](bool with_hog) {
    exp::Testbed bed(exp::PathId::kGigabitOc12);
    auto& sim = bed.sim();
    core::SimTransferConfig config;
    config.spec = {8 * 1024 * 1024, 1024};
    config.receiver_socket_buffer_bytes = 256 * 1024;
    config.timeout = Duration::seconds(120);
    config.carry_data = false;
    std::function<void()> hog = [&]() {
      (void)bed.dst().reserve_cpu(Duration::microseconds(100));
      sim.schedule_in(Duration::microseconds(200), hog);
    };
    if (with_hog) hog();
    const auto result = core::run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
    return result.receiver_complete ? result.receiver_elapsed.seconds() : -1.0;
  };

  const double alone = run_transfer(false);
  const double contended = run_transfer(true);
  ASSERT_GT(alone, 0.0);
  ASSERT_GT(contended, 0.0);
  // With ~50% of the receive CPU stolen, the CPU-bound transfer should
  // take roughly twice as long; require at least 1.5x.
  EXPECT_GT(contended, 1.5 * alone);
}

}  // namespace
}  // namespace fobs

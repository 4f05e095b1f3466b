// Validates the simulator against the closed-form models — if these
// drift apart, either the math or the simulation has a bug.
#include <gtest/gtest.h>

#include "baselines/tcp_bulk.h"
#include "exp/models.h"
#include "exp/runner.h"

namespace fobs::exp {
namespace {

using util::DataRate;
using util::DataSize;
using util::Duration;

TEST(Models, WindowLimitedFormula) {
  // 64 KiB over 65 ms ~ 8.06 Mb/s.
  const auto rate = models::tcp_window_limited(DataSize::bytes(65535),
                                               Duration::milliseconds(65));
  EXPECT_NEAR(rate.mbps(), 8.06, 0.05);
}

TEST(Models, WindowLimitedMatchesSimulatedTcp) {
  auto spec = spec_for(PathId::kLongHaul);
  spec.fwd_loss = 0;
  spec.rev_loss = 0;
  Testbed bed(spec);
  const auto result = baselines::run_tcp_transfers(
      bed.network(), {{bed.src(), bed.dst(), 16 * 1024 * 1024}}, baselines::tcp_without_lwe());
  ASSERT_TRUE(result.completed);
  const auto predicted = models::tcp_window_limited(DataSize::bytes(65535), spec.rtt());
  // Slow start + delayed acks cost a little; within 15%.
  EXPECT_NEAR(result.goodput_mbps, predicted.mbps(), predicted.mbps() * 0.15);
}

TEST(Models, MathisThroughputScalesAsRootLoss) {
  const auto at_1e4 = models::tcp_mathis(1460, Duration::milliseconds(65), 1e-4);
  const auto at_4e4 = models::tcp_mathis(1460, Duration::milliseconds(65), 4e-4);
  EXPECT_NEAR(at_1e4.bps() / at_4e4.bps(), 2.0, 0.01);  // sqrt(4) = 2
}

TEST(Models, SlowStartTime) {
  // 2 segments to ~1433 segments at 1.5x per RTT: log1.5(716) ~ 16.2 RTT.
  const auto t = models::slow_start_time(DataSize::bytes(2 * 1460),
                                         DataSize::bytes(1433 * 1460),
                                         Duration::milliseconds(65), 1.5);
  EXPECT_NEAR(t.seconds(), 16.2 * 0.065, 0.05);
  // Already past the target: zero.
  EXPECT_EQ(models::slow_start_time(DataSize::bytes(1 << 20), DataSize::bytes(1 << 10),
                                    Duration::milliseconds(10)),
            Duration::zero());
}

TEST(Models, ReceiverCeilingMatchesFigure3Endpoint) {
  // The gigabit testbed's receive path at 1 KiB datagrams.
  const auto spec = spec_for(PathId::kGigabitOc12);
  const auto ceiling = models::receiver_cpu_ceiling(
      spec.dst_cpu, DataSize::bytes(1024 + 16));
  // recv cost = 70us + ~19.3us => ~93 Mb/s of datagram bytes.
  EXPECT_NEAR(ceiling.mbps(), (1040.0 * 8) / 89.8, 5.0);
}

TEST(Models, FobsPredictionMatchesSimOnGigabitPath) {
  const auto spec = spec_for(PathId::kGigabitOc12);
  for (std::int64_t packet : {std::int64_t{1024}, std::int64_t{8192}}) {
    const auto predicted =
        models::fobs_throughput(spec.backbone, spec.src_cpu, spec.dst_cpu, packet, 64);
    FobsRunParams params;
    params.packet_bytes = packet;
    params.receiver_socket_buffer_bytes = 256 * 1024;
    const auto measured = run_fobs(spec, params);
    ASSERT_TRUE(measured.completed);
    EXPECT_NEAR(measured.goodput_mbps, predicted.goodput.mbps(),
                predicted.goodput.mbps() * 0.15)
        << "packet=" << packet;
    EXPECT_EQ(predicted.constraint,
              models::FobsPrediction::Constraint::kReceiverCpu);
  }
}

TEST(Models, FobsPredictionMatchesSimOnNicBottleneckedPath) {
  const auto spec = spec_for(PathId::kShortHaul);
  const auto predicted =
      models::fobs_throughput(spec.src_nic, spec.src_cpu, spec.dst_cpu, 1024, 64);
  EXPECT_EQ(predicted.constraint, models::FobsPrediction::Constraint::kWire);
  FobsRunParams params;
  const auto measured = run_fobs(spec, params);
  ASSERT_TRUE(measured.completed);
  EXPECT_NEAR(measured.goodput_mbps, predicted.goodput.mbps(),
              predicted.goodput.mbps() * 0.05);
}

TEST(Models, EndgameWasteFloorExplainsTable2Waste) {
  // ~480 Mb/s sender over a 32.5 ms one-way on a 40 MB object: ~5%.
  const double floor = models::endgame_waste_floor(
      DataRate::megabits_per_second(480), Duration::milliseconds(32),
      40ll * 1024 * 1024);
  EXPECT_NEAR(floor, 0.046, 0.005);
  // The measured contended-path waste must be at least this floor.
  const auto spec = spec_for(PathId::kGigabitContended);
  FobsRunParams params;
  const auto measured = run_fobs(spec, params);
  ASSERT_TRUE(measured.completed);
  EXPECT_GE(measured.waste, floor * 0.8);
}

TEST(Models, ReceiverAckStallCeilingExplainsFigure1LeftEdge) {
  // Short haul, F=1: recv(1040B) ~ 8.1us + 150us ack stall per packet.
  const auto spec = spec_for(PathId::kShortHaul);
  const auto ceiling = models::receiver_cpu_ceiling_with_acks(
      spec.dst_cpu, DataSize::bytes(1040), 1);
  FobsRunParams params;
  params.ack_frequency = 1;
  const auto measured = run_fobs(spec, params);
  ASSERT_TRUE(measured.completed);
  // Goodput ~ ceiling * payload share; generous 20% envelope (the
  // sender keeps the lossy pipe full, retransmissions interleave).
  const double predicted_mbps = ceiling.mbps() * 1024.0 / 1040.0;
  EXPECT_NEAR(measured.goodput_mbps, predicted_mbps, predicted_mbps * 0.2);
}

}  // namespace
}  // namespace fobs::exp

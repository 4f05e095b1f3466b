// Failure injection: FOBS must survive pathological network weather —
// total ACK loss, full outages, crushing one-way loss — as long as the
// TCP control channel eventually works.
#include <gtest/gtest.h>

#include <memory>

#include "exp/testbeds.h"
#include "fobs/sim_transfer.h"
#include "sim/loss.h"

namespace fobs {
namespace {

using core::SimTransferConfig;
using core::run_sim_transfer;
using exp::PathId;
using exp::Testbed;

SimTransferConfig small_config() {
  SimTransferConfig config;
  config.spec.object_bytes = 2 * 1024 * 1024;
  config.carry_data = true;
  return config;
}

TEST(FailureInjection, AllFobsAcksLostStillCompletes) {
  // The reverse UDP path drops everything; FOBS ACKs never arrive. The
  // sender cycles the whole object blindly, the receiver completes, and
  // the reliable TCP completion signal (retransmitted through the same
  // lossy reverse path) ends the transfer. Waste is enormous — that is
  // the design trade, not a bug.
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.rev_loss = 0.0;  // replace with a selective model below
  Testbed bed(spec);

  // Drop only UDP-sized ACK packets on the reverse backbone; let the
  // small TCP control segments through with heavy-but-survivable loss.
  class DropUdpAcks final : public sim::LossModel {
   public:
    bool should_drop(const sim::Packet& packet, util::Rng&) override {
      // FOBS ACKs are UDP (28B overhead) with ~1KB payloads; TCP
      // control is 40B-overhead tiny segments.
      return packet.size_bytes > 200;
    }
  };
  // Reverse chain: find it via the dst host's egress (dst-nic link) —
  // attach the filter there.
  bed.dst().egress()->set_loss_model(std::make_unique<DropUdpAcks>(), util::Rng(1));

  auto config = small_config();
  config.timeout = util::Duration::seconds(300);
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
  // The sender cycles blind for the extra control-channel latency; with
  // no ACKs at all, every one of those sends is a duplicate.
  EXPECT_GT(result.waste, 0.15);
}

TEST(FailureInjection, ForwardOutageMidTransferRecovers) {
  // The forward path goes 100% dark for 500 ms in the middle of the
  // transfer, then comes back. Everything sent into the outage is lost;
  // the bitmap protocol refills the holes.
  auto spec = exp::spec_for(PathId::kShortHaul);
  Testbed bed(spec);
  auto loss = std::make_unique<sim::BernoulliLoss>(0.0);
  auto* raw = loss.get();
  bed.backbone().set_loss_model(std::move(loss), util::Rng(2));
  // The clean transfer takes ~170 ms; go dark from 50 ms to 250 ms.
  bed.sim().schedule_in(util::Duration::milliseconds(50),
                        [raw] { raw->set_probability(1.0); });
  bed.sim().schedule_in(util::Duration::milliseconds(250),
                        [raw] { raw->set_probability(0.0); });

  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), small_config());
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
  // Roughly 200 ms of 100 Mb/s went into the void: sizeable waste.
  EXPECT_GT(result.waste, 0.2);
  // And the transfer stretches past the outage end.
  EXPECT_GT(result.receiver_elapsed.seconds(), 0.3);
}

TEST(FailureInjection, CrushingForwardLossStillConverges) {
  // 30% packet loss: each pass delivers ~70%; convergence is geometric.
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 0.3;
  Testbed bed(spec);
  auto config = small_config();
  config.timeout = util::Duration::seconds(300);
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
  EXPECT_GT(result.waste, 0.3);
}

TEST(FailureInjection, BothDirectionsLossyTcpControlStillFinishesIt) {
  auto spec = exp::spec_for(PathId::kLongHaul);
  spec.fwd_loss = 0.05;
  spec.rev_loss = 0.05;
  Testbed bed(spec);
  auto config = small_config();
  config.timeout = util::Duration::seconds(300);
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
}

TEST(FailureInjection, TinyReceiverSocketBufferNeverDeadlocks) {
  // A 4 KiB socket buffer (fits ~3 datagrams) thrashes but completes.
  Testbed bed(PathId::kShortHaul);
  auto config = small_config();
  config.receiver_socket_buffer_bytes = 4 * 1024;
  config.timeout = util::Duration::seconds(300);
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
}

TEST(FailureInjection, OnePacketObjectSurvivesLoss) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 0.5;
  Testbed bed(spec);
  SimTransferConfig config;
  config.spec.object_bytes = 777;  // single short packet
  config.carry_data = true;
  config.timeout = util::Duration::seconds(120);
  const auto result = run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_TRUE(result.data_verified);
  EXPECT_EQ(result.packets_needed, 1);
}

}  // namespace
}  // namespace fobs

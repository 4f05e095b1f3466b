// Tests for the baseline protocols: TCP bulk, PSockets, RUDP, SABUL.
#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "baselines/rudp.h"
#include "baselines/sabul.h"
#include "baselines/tcp_bulk.h"
#include "exp/testbeds.h"
#include "sim/loss.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace fobs {
namespace {

using baselines::RudpConfig;
using baselines::SabulConfig;
using exp::PathId;
using exp::Testbed;

constexpr std::int64_t kSmallObject = 4 * 1024 * 1024;

/// One transfer from the testbed's source to its sink.
baselines::TcpRunResult run_one(Testbed& bed, std::int64_t bytes,
                                const net::TcpConfig& config) {
  return baselines::run_tcp_transfers(bed.network(), {{bed.src(), bed.dst(), bytes}}, config);
}

/// PSockets over the testbed's path.
baselines::TcpRunResult run_striped(Testbed& bed, std::int64_t bytes, int streams) {
  return baselines::run_tcp_transfers(
      bed.network(), baselines::psockets_transfers(bed.src(), bed.dst(), bytes, streams),
      baselines::psockets_stream_config());
}

/// `pairs` host pairs, each on its own clean 100 Mb/s, 5 ms duplex path.
struct Pairs {
  sim::Simulation simulation;
  sim::Network network{simulation};
  std::vector<host::Host*> senders;
  std::vector<host::Host*> receivers;
  std::vector<sim::Link*> forward;

  explicit Pairs(int pairs) {
    for (int i = 0; i < pairs; ++i) {
      // Names built by append: `"s" + std::to_string(i)` trips a false
      // -Wrestrict in GCC 12 at -O3.
      host::HostConfig s_cfg;
      s_cfg.name = std::string("s").append(std::to_string(i));
      host::HostConfig d_cfg;
      d_cfg.name = std::string("d").append(std::to_string(i));
      auto& s = host::Host::create(network, s_cfg);
      auto& d = host::Host::create(network, d_cfg);
      sim::LinkConfig cfg;
      cfg.rate = util::DataRate::megabits_per_second(100);
      cfg.propagation_delay = util::Duration::milliseconds(5);
      cfg.queue_capacity_bytes = 256 * 1024;
      auto& fwd = network.add_link(cfg);
      auto& rev = network.add_link(cfg);
      fwd.set_sink(&d);
      rev.set_sink(&s);
      s.set_egress(&fwd);
      d.set_egress(&rev);
      senders.push_back(&s);
      receivers.push_back(&d);
      forward.push_back(&fwd);
    }
  }
};

/// Drops nothing; remembers when the first packet crossed its link.
class FirstPacketClock final : public sim::LossModel {
 public:
  explicit FirstPacketClock(const sim::Simulation& simulation) : simulation_(simulation) {}
  bool should_drop(const sim::Packet&, util::Rng&) override {
    if (!seen_) first_ = simulation_.now();
    seen_ = true;
    return false;
  }
  [[nodiscard]] bool seen() const { return seen_; }
  [[nodiscard]] util::TimePoint first() const { return first_; }

 private:
  const sim::Simulation& simulation_;
  bool seen_ = false;
  util::TimePoint first_;
};

TEST(TcpBulk, ShortHaulWithLweNearsLineRate) {
  // Big enough that slow start does not dominate the average.
  Testbed bed(PathId::kShortHaul);
  const auto result = run_one(bed, 16 * 1024 * 1024, baselines::tcp_with_lwe());
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.fraction_of(bed.spec().max_bandwidth), 0.6);
}

TEST(TcpBulk, WithoutLweIsWindowLimitedOnLongHaul) {
  // 64 KiB / 65 ms ~ 8 Mb/s: the Table 1 bottom row.
  auto spec = exp::spec_for(PathId::kLongHaul);
  spec.fwd_loss = 0;  // pure window arithmetic
  Testbed bed(spec);
  const auto result = run_one(bed, kSmallObject, baselines::tcp_without_lwe());
  ASSERT_TRUE(result.completed);
  const double fraction = result.fraction_of(spec.max_bandwidth);
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.12);
}

TEST(TcpBulk, LweBeatsNoLweOnLongHaul) {
  auto spec = exp::spec_for(PathId::kLongHaul);
  spec.fwd_loss = 0;
  Testbed bed1(spec);
  const auto with = run_one(bed1, kSmallObject, baselines::tcp_with_lwe());
  Testbed bed2(spec);
  const auto without = run_one(bed2, kSmallObject, baselines::tcp_without_lwe());
  ASSERT_TRUE(with.completed && without.completed);
  EXPECT_GT(with.goodput_mbps, 2.0 * without.goodput_mbps);
}

TEST(TcpTransfers, EachTransferReportsItsOwnElapsed) {
  Pairs world(3);
  const std::vector<std::int64_t> sizes = {1 << 20, 2 << 20, 4 << 20};
  std::vector<baselines::TcpTransfer> transfers;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    transfers.push_back({*world.senders[i], *world.receivers[i], sizes[i]});
  }
  const auto result =
      baselines::run_tcp_transfers(world.network, transfers, baselines::tcp_with_lwe());
  ASSERT_TRUE(result.completed);
  ASSERT_EQ(result.transfer_elapsed.size(), 3u);
  // Identical clean paths: the bigger object takes longer.
  EXPECT_GT(result.transfer_elapsed[0], util::Duration::zero());
  EXPECT_LT(result.transfer_elapsed[0], result.transfer_elapsed[1]);
  EXPECT_LT(result.transfer_elapsed[1], result.transfer_elapsed[2]);
  EXPECT_EQ(result.elapsed, result.transfer_elapsed[2]);
  EXPECT_NEAR(result.goodput_mbps, (7 << 20) * 8.0 / result.elapsed.seconds() / 1e6, 1e-9);
}

TEST(TcpTransfers, CompletedNeedsEveryTransfer) {
  Pairs world(3);
  // The third pair's forward path loses everything, its SYN included.
  world.forward[2]->set_loss_model(std::make_unique<sim::BernoulliLoss>(1.0), util::Rng(1));
  std::vector<baselines::TcpTransfer> transfers;
  for (std::size_t i = 0; i < 3; ++i) {
    transfers.push_back({*world.senders[i], *world.receivers[i], 1 << 20});
  }
  const auto result =
      baselines::run_tcp_transfers(world.network, transfers, baselines::tcp_with_lwe());
  EXPECT_FALSE(result.completed);
  EXPECT_GT(result.transfer_elapsed[0], util::Duration::zero());
  EXPECT_GT(result.transfer_elapsed[1], util::Duration::zero());
  EXPECT_EQ(result.transfer_elapsed[2], util::Duration::zero());
  EXPECT_EQ(result.elapsed, util::Duration::zero());
  EXPECT_EQ(result.goodput_mbps, 0.0);
}

TEST(TcpTransfers, StartDelaysTheFirstSegment) {
  Pairs world(1);
  auto clock = std::make_unique<FirstPacketClock>(world.simulation);
  const auto* observed = clock.get();
  world.forward[0]->set_loss_model(std::move(clock), util::Rng(1));
  const auto start = util::Duration::milliseconds(50);
  const auto result = baselines::run_tcp_transfers(
      world.network, {{*world.senders[0], *world.receivers[0], 1 << 20, start}},
      baselines::tcp_with_lwe());
  ASSERT_TRUE(result.completed);
  ASSERT_TRUE(observed->seen());
  EXPECT_GE(observed->first() - util::TimePoint{}, start);
  EXPECT_GT(result.elapsed, start);
}

TEST(TcpTransfers, StartsLeftUnfiredAreCancelledOnReturn) {
  Pairs world(2);
  // Both start past the 600 s limit: the run stops before the first,
  // so neither connects, and both are still pending when it returns.
  const auto result = baselines::run_tcp_transfers(
      world.network,
      {{*world.senders[0], *world.receivers[0], 1 << 20, util::Duration::seconds(601)},
       {*world.senders[1], *world.receivers[1], 1 << 20, util::Duration::seconds(602)}},
      baselines::tcp_with_lwe());
  EXPECT_FALSE(result.completed);
  world.simulation.run();  // nothing left may call into the run's connections
  EXPECT_EQ(world.forward[0]->stats().packets_offered, 0u);
  EXPECT_EQ(world.forward[1]->stats().packets_offered, 0u);
}

TEST(Psockets, StripingAggregatesLimitedWindows) {
  // With 256 KiB per-socket buffers on a 65 ms path each stream is
  // window-limited; more streams must go materially faster.
  auto spec = exp::spec_for(PathId::kLongHaul);
  spec.fwd_loss = 0;
  const std::int64_t object = 16 * 1024 * 1024;  // long enough to leave slow start
  Testbed bed1(spec);
  const auto one = run_striped(bed1, object, 1);
  Testbed bed2(spec);
  const auto eight = run_striped(bed2, object, 8);
  ASSERT_TRUE(one.completed && eight.completed);
  EXPECT_GT(eight.goodput_mbps, 2.0 * one.goodput_mbps);
}

TEST(Psockets, StreamsStartTwoMillisecondsApart) {
  Testbed bed(PathId::kShortHaul);
  const auto transfers = baselines::psockets_transfers(bed.src(), bed.dst(), 10, 4);
  ASSERT_EQ(transfers.size(), 4u);
  std::int64_t total = 0;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    EXPECT_EQ(transfers[i].start, util::Duration::milliseconds(2) * i);
    total += transfers[i].bytes;
  }
  EXPECT_EQ(total, 10);
  EXPECT_EQ(transfers[0].bytes, 3);  // the remainder goes to the first streams
  EXPECT_EQ(transfers[3].bytes, 2);
}

TEST(Rudp, CleanPathFinishesInOnePass) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 0;
  spec.rev_loss = 0;
  Testbed bed(spec);
  RudpConfig config;
  config.spec = {kSmallObject, 1024};
  const auto result = baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.passes, 1);
  EXPECT_DOUBLE_EQ(result.waste, 0.0);
  EXPECT_GT(result.fraction_of(spec.max_bandwidth), 0.6);
}

TEST(Rudp, LossyPathNeedsExtraPasses) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 5e-3;  // heavy loss: each pass loses ~20 packets
  Testbed bed(spec);
  RudpConfig config;
  config.spec = {kSmallObject, 1024};
  const auto result = baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_GE(result.passes, 2);
  EXPECT_GT(result.waste, 0.0);
}

TEST(Rudp, PacedBlastRespectsConfiguredRate) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 0;
  Testbed bed(spec);
  RudpConfig config;
  config.spec = {kSmallObject, 1024};
  config.send_rate = util::DataRate::megabits_per_second(20);
  const auto result = baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_LT(result.goodput_mbps, 22.0);
  EXPECT_GT(result.goodput_mbps, 15.0);
}

TEST(Rudp, RunCutAtTheLimitLeavesNothingForTheNextRun) {
  // A 128 kb/s NIC cannot move 16 MiB within the 600 s limit, so the
  // first run ends with its sender waiting for the NIC to drain. The NIC
  // drains during the second run, which must not wake the first run's
  // destroyed sender.
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 0;
  spec.src_nic = util::DataRate::bits_per_second(128e3);
  Testbed bed(spec);
  RudpConfig config;
  config.spec = {16 * 1024 * 1024, 1024};
  const auto cut = baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
  EXPECT_FALSE(cut.completed);
  EXPECT_GT(cut.packets_sent, 0);
  const auto next = baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
  EXPECT_FALSE(next.completed);
}

TEST(Sabul, CleanPathHoldsItsConfiguredRate) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 0;
  Testbed bed(spec);
  SabulConfig config;
  config.spec = {kSmallObject, 1024};
  config.initial_rate = util::DataRate::megabits_per_second(90);
  const auto result =
      baselines::run_sabul_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.fraction_of(spec.max_bandwidth), 0.6);
  EXPECT_EQ(result.loss_reports, 0u);
}

TEST(Sabul, LossMakesItSlowDown) {
  // SABUL interprets loss as congestion (paper §2): its final rate must
  // drop below the configured one, unlike FOBS which stays greedy.
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 2e-3;
  Testbed bed(spec);
  SabulConfig config;
  config.spec = {kSmallObject, 1024};
  config.initial_rate = util::DataRate::megabits_per_second(90);
  const auto result =
      baselines::run_sabul_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.loss_reports, 0u);
  EXPECT_LT(result.final_rate_mbps, 90.0);
}

TEST(Sabul, TwoRunsOnOneTestbedBothComplete) {
  // The first run's ends are gone when the second starts on the same
  // network: its report timers and polls must not fire into the second.
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 2e-3;
  Testbed bed(spec);
  SabulConfig config;
  config.spec = {kSmallObject, 1024};
  config.initial_rate = util::DataRate::megabits_per_second(90);
  for (int run = 0; run < 2; ++run) {
    const auto result =
        baselines::run_sabul_transfer(bed.network(), bed.src(), bed.dst(), config);
    EXPECT_TRUE(result.completed) << "run " << run;
    EXPECT_GT(result.loss_reports, 0u) << "run " << run;
  }
}

}  // namespace
}  // namespace fobs

// Unit tests for the loss model and the cross-traffic source.
#include <gtest/gtest.h>

#include <cmath>
#include <memory>

#include "sim/cross_traffic.h"
#include "sim/link.h"
#include "sim/loss.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace fobs::sim {
namespace {

using fobs::util::DataRate;
using fobs::util::Duration;
using fobs::util::Rng;

Packet sized_packet(std::int64_t bytes) {
  Packet pkt;
  pkt.size_bytes = bytes;
  return pkt;
}

TEST(LossModels, FragmentCount) {
  EXPECT_EQ(fragment_count(100, 1500), 1);
  EXPECT_EQ(fragment_count(1500, 1500), 1);
  EXPECT_EQ(fragment_count(1501, 1500), 2);
  EXPECT_EQ(fragment_count(32768, 1500), 22);
  EXPECT_EQ(fragment_count(9000, 0), 1);  // fragmentation disabled
}

TEST(LossModels, BernoulliZeroAndOne) {
  Rng rng(1);
  BernoulliLoss none(0.0);
  BernoulliLoss all(1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_FALSE(none.should_drop(sized_packet(1000), rng));
    EXPECT_TRUE(all.should_drop(sized_packet(1000), rng));
  }
}

TEST(LossModels, BernoulliRate) {
  Rng rng(2);
  BernoulliLoss loss(0.1);
  int drops = 0;
  const int n = 50000;
  for (int i = 0; i < n; ++i) drops += loss.should_drop(sized_packet(1000), rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(drops) / n, 0.1, 0.01);
}

TEST(LossModels, FragmentationAmplifiesLoss) {
  // A 32 KB datagram fragments into 22 pieces; with per-fragment loss p
  // its survival is (1-p)^22, so its drop rate is much higher.
  Rng rng1(3), rng2(3);
  BernoulliLoss loss_small(0.01, 1500);
  BernoulliLoss loss_big(0.01, 1500);
  int small_drops = 0, big_drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) {
    small_drops += loss_small.should_drop(sized_packet(1000), rng1) ? 1 : 0;
    big_drops += loss_big.should_drop(sized_packet(32768), rng2) ? 1 : 0;
  }
  const double p_small = static_cast<double>(small_drops) / n;
  const double p_big = static_cast<double>(big_drops) / n;
  EXPECT_NEAR(p_small, 0.01, 0.005);
  EXPECT_NEAR(p_big, 1.0 - std::pow(0.99, 22), 0.02);
  EXPECT_GT(p_big, 5 * p_small);
}

TEST(LossModels, BernoulliProbabilityChangesTakeEffect) {
  BernoulliLoss loss(0.0);
  Rng rng(1);
  const Packet pkt = sized_packet(1000);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(loss.should_drop(pkt, rng));
  loss.set_probability(1.0);
  for (int i = 0; i < 100; ++i) EXPECT_TRUE(loss.should_drop(pkt, rng));
  loss.set_probability(0.0);
  EXPECT_FALSE(loss.should_drop(pkt, rng));
}

TEST(LossModels, SetProbabilityDrawsLikeAFreshModel) {
  // A scenario phase flips one model's probability; that must decide
  // every packet exactly as a model built with that probability would,
  // consuming the same RNG draws.
  BernoulliLoss flipped(0.0);
  flipped.set_probability(0.2);
  BernoulliLoss fresh(0.2);
  Rng rng_flipped(11), rng_fresh(11);
  for (int i = 0; i < 2000; ++i) {
    const Packet pkt = sized_packet(i % 3 == 0 ? 4000 : 1000);
    ASSERT_EQ(flipped.should_drop(pkt, rng_flipped), fresh.should_drop(pkt, rng_fresh)) << i;
  }
  EXPECT_EQ(rng_flipped.next(), rng_fresh.next());
}

TEST(LossModels, SetProbabilityKeepsFragmentationAndClamps) {
  Rng rng(4);
  BernoulliLoss loss(0.0, 1500);
  loss.set_probability(0.01);
  int big_drops = 0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) big_drops += loss.should_drop(sized_packet(32768), rng) ? 1 : 0;
  EXPECT_NEAR(static_cast<double>(big_drops) / n, 1.0 - std::pow(0.99, 22), 0.02);
  loss.set_probability(1.5);
  EXPECT_TRUE(loss.should_drop(sized_packet(1000), rng));
  loss.set_probability(-0.5);
  for (int i = 0; i < 100; ++i) EXPECT_FALSE(loss.should_drop(sized_packet(1000), rng));
}

TEST(CrossTraffic, OnOffAverageLoadIsDutyCycleFraction) {
  Simulation sim;
  fobs::sim::Network net(sim);
  auto& sink_node = net.add_blackhole("sink");
  // Peak 40 Mb/s, on 50 ms / off 150 ms => ~25% duty => ~10 Mb/s avg.
  OnOffSource src(sim, sink_node, 100, sink_node.id(), 1000,
                  DataRate::megabits_per_second(40), Duration::milliseconds(50),
                  Duration::milliseconds(150), Rng(7));
  src.start();
  sim.run_until(fobs::util::TimePoint::from_ns(Duration::seconds(20).ns()));
  const double avg_mbps =
      static_cast<double>(src.stats().bytes_sent) * 8.0 / 20.0 / 1e6;
  EXPECT_NEAR(avg_mbps, 10.0, 3.0);
  EXPECT_EQ(sink_node.packets_received(), src.stats().packets_sent);
}

/// A source that is in a burst from the start and stays in it: 8 Mb/s
/// of 1000 B packets, one every millisecond.
std::unique_ptr<OnOffSource> steady_source(Simulation& sim, BlackholeNode& sink,
                                           std::uint64_t seed) {
  return std::make_unique<OnOffSource>(sim, sink, 100, sink.id(), 1000,
                                       DataRate::megabits_per_second(8), Duration::seconds(1000),
                                       Duration::microseconds(1), Rng(seed));
}

TEST(CrossTraffic, StopHaltsEmission) {
  Simulation sim;
  fobs::sim::Network net(sim);
  auto& sink_node = net.add_blackhole("sink");
  auto src = steady_source(sim, sink_node, 8);
  src->start();
  sim.run_until(fobs::util::TimePoint::from_ns(Duration::milliseconds(100).ns()));
  src->stop();
  const auto sent = src->stats().packets_sent;
  EXPECT_GT(sent, 90u);  // it was emitting when stopped
  sim.run_until(fobs::util::TimePoint::from_ns(Duration::seconds(1).ns()));
  EXPECT_LE(src->stats().packets_sent, sent + 1);  // at most one in-flight event
}

TEST(CrossTraffic, StartIsIdempotent) {
  // A source started twice emits exactly what the same source started
  // once does: the second start must not add a second emission chain.
  Simulation sim;
  fobs::sim::Network net(sim);
  auto& sink_node = net.add_blackhole("sink");
  auto once = steady_source(sim, sink_node, 9);
  auto twice = steady_source(sim, sink_node, 9);
  once->start();
  twice->start();
  twice->start();
  sim.run_until(fobs::util::TimePoint::from_ns(Duration::seconds(1).ns()));
  EXPECT_GT(once->stats().packets_sent, 900u);
  EXPECT_EQ(twice->stats().packets_sent, once->stats().packets_sent);
  EXPECT_EQ(twice->stats().bytes_sent, once->stats().bytes_sent);
}

TEST(CrossTraffic, SameSeedGivesIdenticalEmission) {
  // Testbeds rely on this: the same seed reproduces the same weather.
  auto emitted = [](std::uint64_t seed) {
    Simulation sim;
    fobs::sim::Network net(sim);
    auto& sink_node = net.add_blackhole("sink");
    OnOffSource src(sim, sink_node, 100, sink_node.id(), 1000,
                    DataRate::megabits_per_second(40), Duration::milliseconds(20),
                    Duration::milliseconds(30), Rng(seed));
    src.start();
    sim.run_until(fobs::util::TimePoint::from_ns(Duration::seconds(2).ns()));
    return src.stats().packets_sent;
  };
  const auto first = emitted(5);
  EXPECT_GT(first, 0u);
  EXPECT_EQ(emitted(5), first);
  EXPECT_NE(emitted(6), first);
}

TEST(CrossTraffic, NeverExceedsPeakRate) {
  Simulation sim;
  fobs::sim::Network net(sim);
  auto& sink_node = net.add_blackhole("sink");
  // Long bursts, short pauses: the source is almost always at peak.
  // 1000 B at 8 Mb/s is one packet per millisecond.
  OnOffSource src(sim, sink_node, 100, sink_node.id(), 1000, DataRate::megabits_per_second(8),
                  Duration::milliseconds(200), Duration::milliseconds(1), Rng(3));
  src.start();
  sim.run_until(fobs::util::TimePoint::from_ns(Duration::seconds(1).ns()));
  EXPECT_LE(src.stats().packets_sent, 1000u);
  EXPECT_GT(src.stats().packets_sent, 900u);
  EXPECT_EQ(src.stats().bytes_sent,
            static_cast<std::int64_t>(src.stats().packets_sent) * 1000);
}

}  // namespace
}  // namespace fobs::sim

// Unit tests for links: serialization timing, drop-tail queueing,
// propagation, loss models, and space callbacks.
#include <gtest/gtest.h>

#include <vector>

#include "sim/link.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace fobs::sim {
namespace {

using fobs::util::DataRate;
using fobs::util::Duration;
using fobs::util::TimePoint;

/// Records every delivered packet with its arrival time.
class RecordingSink final : public PacketSink {
 public:
  explicit RecordingSink(Simulation& sim) : sim_(sim) {}
  void deliver(Packet packet) override {
    arrivals.push_back({sim_.now(), packet.uid});
  }
  struct Arrival {
    TimePoint when;
    std::uint64_t uid;
  };
  std::vector<Arrival> arrivals;

 private:
  Simulation& sim_;
};

Packet make_packet(std::uint64_t uid, std::int64_t bytes) {
  Packet pkt;
  pkt.uid = uid;
  pkt.size_bytes = bytes;
  return pkt;
}

TEST(Link, SerializationPlusPropagation) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(100);  // 1250 B = 100 us
  cfg.propagation_delay = Duration::milliseconds(1);
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);

  link.deliver(make_packet(1, 1250));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 1u);
  EXPECT_EQ(sink.arrivals[0].when.us(), 100 + 1000);
  EXPECT_EQ(link.stats().packets_delivered, 1u);
  EXPECT_EQ(link.stats().bytes_delivered, 1250);
}

TEST(Link, BackToBackPacketsPipelineThroughPropagation) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(100);
  cfg.propagation_delay = Duration::milliseconds(10);
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);

  link.deliver(make_packet(1, 1250));
  link.deliver(make_packet(2, 1250));
  sim.run();
  ASSERT_EQ(sink.arrivals.size(), 2u);
  // Second packet arrives one serialization time after the first —
  // propagation overlaps (the wire is a pipe, not a lock).
  EXPECT_EQ(sink.arrivals[0].when.us(), 100 + 10000);
  EXPECT_EQ(sink.arrivals[1].when.us(), 200 + 10000);
}

TEST(Link, DropTailOnQueueOverflow) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(1);  // slow: queue builds
  cfg.queue_capacity_bytes = 3000;
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);

  // First starts transmitting (not queued); then 3000 bytes fit; the
  // rest drop.
  for (std::uint64_t i = 0; i < 6; ++i) link.deliver(make_packet(i, 1000));
  EXPECT_EQ(link.stats().drops_overflow, 2u);
  sim.run();
  EXPECT_EQ(sink.arrivals.size(), 4u);
  EXPECT_EQ(link.stats().packets_offered, 6u);
}

TEST(Link, HasRoomForReflectsQueueState) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(1);
  cfg.queue_capacity_bytes = 2000;
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);

  EXPECT_TRUE(link.has_room_for(2000));
  link.deliver(make_packet(1, 1000));  // transmitting, queue empty
  EXPECT_TRUE(link.has_room_for(2000));
  link.deliver(make_packet(2, 1500));  // queued
  EXPECT_FALSE(link.has_room_for(1000));
  EXPECT_TRUE(link.has_room_for(500));
  EXPECT_EQ(link.queued_bytes(), 1500);
}

TEST(Link, SpaceCallbackFiresWhenQueueDrains) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(100);
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);
  int fires = 0;
  link.set_space_callback([&] { ++fires; });

  // Spurious wakeups are allowed (select() semantics); the guarantee is
  // that a drain event always produces at least one callback.
  link.deliver(make_packet(1, 1250));  // starts transmitting immediately
  link.deliver(make_packet(2, 1250));  // queued
  const int fires_before_drain = fires;
  sim.run();
  EXPECT_GE(fires, fires_before_drain + 1);  // fired when packet 2 left the queue
}

TEST(Link, RandomLossModelDropsAndCounts) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::gigabits_per_second(10);
  cfg.queue_capacity_bytes = 100 * 1024 * 1024;
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);
  link.set_loss_model(std::make_unique<BernoulliLoss>(0.5, 1500), fobs::util::Rng(1));

  const int n = 2000;
  for (int i = 0; i < n; ++i) link.deliver(make_packet(static_cast<std::uint64_t>(i), 1000));
  sim.run();
  EXPECT_NEAR(static_cast<double>(link.stats().drops_random) / n, 0.5, 0.05);
  EXPECT_EQ(link.stats().drops_random + sink.arrivals.size(), static_cast<std::size_t>(n));
}

// LinkStats counts each packet at the same point the link decides its
// fate: accepted, dropped for overflow, dropped at random, or delivered.

TEST(Link, StatsCountEveryOfferAndDelivery) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(8);  // 1000 B = 1 ms
  cfg.queue_capacity_bytes = 4096;
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);

  link.deliver(make_packet(1, 1000));
  link.deliver(make_packet(2, 1000));
  EXPECT_EQ(link.stats().packets_offered, 2u);
  EXPECT_EQ(link.stats().packets_delivered, 0u);  // still serializing
  sim.run();
  EXPECT_EQ(link.stats().packets_delivered, 2u);
  EXPECT_EQ(link.stats().bytes_delivered, 2000);
  EXPECT_EQ(link.stats().drops_overflow, 0u);
  EXPECT_EQ(link.stats().drops_random, 0u);
  ASSERT_EQ(sink.arrivals.size(), 2u);
  EXPECT_GT(sink.arrivals[1].when.ns(), sink.arrivals[0].when.ns());
}

TEST(Link, OverflowDropsAreCountedWhenOffered) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(8);
  cfg.queue_capacity_bytes = 2000;
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);

  // 1 transmitting + 2 queued are accepted; the other 3 drop at once,
  // before any simulated time passes.
  for (std::uint64_t i = 0; i < 6; ++i) link.deliver(make_packet(i, 1000));
  EXPECT_EQ(sim.now().ns(), 0);
  EXPECT_EQ(link.stats().drops_overflow, 3u);
  sim.run();
  EXPECT_EQ(link.stats().drops_overflow, 3u);
  EXPECT_EQ(link.stats().packets_delivered, 3u);
  EXPECT_EQ(sink.arrivals.size(), 3u);
}

TEST(Link, RandomDropIsNeitherQueuedNorDelivered) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(8);
  cfg.queue_capacity_bytes = 10'000'000;
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);
  link.set_loss_model(std::make_unique<BernoulliLoss>(1.0), fobs::util::Rng(1));

  link.deliver(make_packet(1, 1000));
  EXPECT_EQ(link.queued_bytes(), 0);
  sim.run();
  EXPECT_EQ(link.stats().drops_random, 1u);
  EXPECT_EQ(link.stats().drops_overflow, 0u);
  EXPECT_EQ(link.stats().packets_delivered, 0u);
  EXPECT_EQ(link.stats().busy_time.ns(), 0);
  EXPECT_TRUE(sink.arrivals.empty());
}

TEST(Link, UtilizationAccounting) {
  Simulation sim;
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(100);
  Link link(sim, cfg);
  RecordingSink sink(sim);
  link.set_sink(&sink);

  // 10 packets x 100 us = 1 ms busy.
  for (int i = 0; i < 10; ++i) link.deliver(make_packet(static_cast<std::uint64_t>(i), 1250));
  sim.run();
  EXPECT_EQ(link.stats().busy_time.us(), 1000);
  EXPECT_NEAR(link.stats().utilization(Duration::milliseconds(2)), 0.5, 1e-9);
}

}  // namespace
}  // namespace fobs::sim

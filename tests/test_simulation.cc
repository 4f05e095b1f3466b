// Unit tests for the discrete-event kernel.
#include <gtest/gtest.h>

#include <vector>

#include "sim/simulation.h"

namespace fobs::sim {
namespace {

using fobs::util::Duration;
using fobs::util::TimePoint;

TEST(Simulation, ExecutesInTimeOrder) {
  Simulation sim;
  std::vector<int> order;
  sim.schedule_at(TimePoint::from_ns(30), [&] { order.push_back(3); });
  sim.schedule_at(TimePoint::from_ns(10), [&] { order.push_back(1); });
  sim.schedule_at(TimePoint::from_ns(20), [&] { order.push_back(2); });
  sim.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.now().ns(), 30);
  EXPECT_EQ(sim.events_executed(), 3u);
}

TEST(Simulation, SameTimeIsFifo) {
  Simulation sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.schedule_at(TimePoint::from_ns(5), [&order, i] { order.push_back(i); });
  }
  sim.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Simulation, ScheduleInIsRelative) {
  Simulation sim;
  TimePoint fired;
  sim.schedule_in(Duration::microseconds(5), [&] {
    fired = sim.now();
    sim.schedule_in(Duration::microseconds(10), [&] { fired = sim.now(); });
  });
  sim.run();
  EXPECT_EQ(fired.us(), 15);
}

TEST(Simulation, NegativeDelayClampsToNow) {
  Simulation sim;
  bool ran = false;
  sim.schedule_in(Duration::nanoseconds(-100), [&] { ran = true; });
  sim.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(sim.now().ns(), 0);
}

TEST(Simulation, CancelDropsEvent) {
  Simulation sim;
  bool ran = false;
  const EventId id = sim.schedule_in(Duration::microseconds(1), [&] { ran = true; });
  EXPECT_TRUE(sim.cancel(id));
  EXPECT_FALSE(sim.cancel(id));  // second cancel is a no-op
  sim.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.events_executed(), 0u);
}

TEST(Simulation, CancelInvalidIdIsNoop) {
  Simulation sim;
  EXPECT_FALSE(sim.cancel(kInvalidEventId));
  EXPECT_FALSE(sim.cancel(9999));
}

TEST(Simulation, RunUntilAdvancesClockToHorizon) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_ns(100), [&] { ++fired; });
  sim.schedule_at(TimePoint::from_ns(500), [&] { ++fired; });
  sim.run_until(TimePoint::from_ns(200));
  EXPECT_EQ(fired, 1);
  EXPECT_EQ(sim.now().ns(), 200);  // clock reaches the horizon
  sim.run_until(TimePoint::from_ns(1000));
  EXPECT_EQ(fired, 2);
  EXPECT_EQ(sim.now().ns(), 1000);
}

TEST(Simulation, RunForIsRelative) {
  Simulation sim;
  sim.run_for(Duration::microseconds(3));
  EXPECT_EQ(sim.now().us(), 3);
  sim.run_for(Duration::microseconds(2));
  EXPECT_EQ(sim.now().us(), 5);
}

TEST(Simulation, StopHaltsRun) {
  Simulation sim;
  int fired = 0;
  sim.schedule_at(TimePoint::from_ns(1), [&] {
    ++fired;
    sim.stop();
  });
  sim.schedule_at(TimePoint::from_ns(2), [&] { ++fired; });
  sim.run();
  EXPECT_EQ(fired, 1);
  EXPECT_TRUE(sim.stopped());
  sim.clear_stop();
  sim.run();
  EXPECT_EQ(fired, 2);
}

TEST(Simulation, StepReturnsFalseWhenEmpty) {
  Simulation sim;
  EXPECT_FALSE(sim.step());
  sim.schedule_in(Duration::zero(), [] {});
  EXPECT_TRUE(sim.step());
  EXPECT_FALSE(sim.step());
}

TEST(Simulation, EventsScheduledDuringEventRun) {
  Simulation sim;
  int depth = 0;
  std::function<void()> recurse = [&] {
    if (++depth < 5) sim.schedule_in(Duration::nanoseconds(10), recurse);
  };
  sim.schedule_in(Duration::zero(), recurse);
  sim.run();
  EXPECT_EQ(depth, 5);
  EXPECT_EQ(sim.now().ns(), 40);
}

TEST(Simulation, PendingEventsTracksLiveEvents) {
  Simulation sim;
  const EventId a = sim.schedule_in(Duration::microseconds(1), [] {});
  sim.schedule_in(Duration::microseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.cancel(a);
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.run();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulation, PendingUntilFiredOrCancelled) {
  Simulation sim;
  const EventId fires = sim.schedule_in(Duration::microseconds(1), [] {});
  const EventId later = sim.schedule_in(Duration::microseconds(5), [] {});
  const EventId dropped = sim.schedule_in(Duration::microseconds(2), [] {});
  EXPECT_TRUE(sim.pending(fires));
  EXPECT_TRUE(sim.pending(later));
  sim.cancel(dropped);
  EXPECT_FALSE(sim.pending(dropped));
  sim.run_until(TimePoint::from_ns(Duration::microseconds(3).ns()));
  EXPECT_FALSE(sim.pending(fires));
  EXPECT_TRUE(sim.pending(later));
  EXPECT_FALSE(sim.pending(kInvalidEventId));
}

}  // namespace
}  // namespace fobs::sim

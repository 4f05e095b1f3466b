// RateCap (fobs/rate_cap.h) on a virtual clock: a simulated receiver
// drains its socket queue at a fixed rate, stamps the queue's drops on
// its ACKs, and a greedy sender sends trains whenever the cap lets it.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>

#include "common/rng.h"
#include "fobs/rate_cap.h"

namespace fobs {
namespace {

using core::RateCap;
using Time = RateCap::Time;
using std::chrono::microseconds;
using std::chrono::milliseconds;

constexpr std::int64_t kTrain = 62;

/// A receiver socket of `queue_packets` that drains `drain_per_s`
/// datagrams per second and acknowledges every 64 of them. A
/// train that does not fit is dropped whole, as the kernel drops a
/// coalesced train; an ACK carries the socket's drop count as of its
/// sending, as the receiver reads it with SO_MEMINFO.
class Receiver {
 public:
  Receiver(double drain_per_s, std::int64_t queue_packets)
      : drain_per_s_(drain_per_s), queue_packets_(queue_packets) {}

  void enqueue(std::int64_t packets) {
    if (queued_ + packets > queue_packets_) {
      ++drops_;
      return;
    }
    queued_ += packets;
    trains_.push_back(packets);
  }

  /// Drains for `dt`; hands each ACK due to `cap`.
  void drain(Time now, std::chrono::nanoseconds dt, RateCap& cap) {
    credit_ += drain_per_s_ * std::chrono::duration<double>(dt).count();
    while (credit_ >= 1.0 && !trains_.empty()) {
      credit_ -= 1.0;
      --queued_;
      ++received_;
      if (--trains_.front() == 0) trains_.pop_front();
      if (received_ % 64 == 0) cap.on_ack(now, received_, static_cast<std::uint16_t>(drops_));
    }
    if (trains_.empty()) credit_ = std::min(credit_, 1.0);
  }

  [[nodiscard]] std::int64_t drops() const { return drops_; }

 private:
  const double drain_per_s_;
  const std::int64_t queue_packets_;
  /// Queued trains' packets still to drain, oldest first.
  std::deque<std::int64_t> trains_;
  std::int64_t queued_ = 0;
  std::int64_t received_ = 0;
  std::int64_t drops_ = 0;
  double credit_ = 0.0;
};

struct Run {
  double min_rate = 1e300;  ///< over the second half, once engaged
  double max_rate = 0.0;
  double mean_send_rate = 0.0;  ///< datagrams per second, second half
  std::int64_t drops = 0;
  bool engaged = false;
  RateCap::Duration max_wait{};
};

/// A sender that could send a train every `send_gap`, for `length`.
Run simulate(double drain_per_s, std::int64_t queue_packets, microseconds send_gap,
             milliseconds length) {
  const Time start{};
  RateCap cap(start, kTrain);
  Receiver receiver(drain_per_s, queue_packets);
  Run run;
  const auto step = microseconds(10);
  Time next_ready = start;
  std::int64_t sent_second_half = 0;
  for (Time now = start; now < start + length; now += step) {
    receiver.drain(now, step, cap);
    const auto wait = cap.wait(now);
    run.max_wait = std::max(run.max_wait, wait);
    if (now >= next_ready && wait == RateCap::Duration::zero()) {
      receiver.enqueue(kTrain);
      cap.on_sent(now, kTrain);
      next_ready = now + send_gap;
      if (now >= start + length / 2) sent_second_half += kTrain;
    }
    if (now >= start + length / 2 && cap.engaged()) {
      run.min_rate = std::min(run.min_rate, cap.rate());
      run.max_rate = std::max(run.max_rate, cap.rate());
    }
  }
  run.mean_send_rate =
      static_cast<double>(sent_second_half) / std::chrono::duration<double>(length / 2).count();
  run.drops = receiver.drops();
  run.engaged = cap.engaged();
  return run;
}

TEST(RateCap, NeverEngagesWithoutDrops) {
  // A receiver faster than the sender: its queue never overflows.
  const auto run = simulate(2e6, 2000, microseconds(62), milliseconds(200));
  EXPECT_EQ(run.drops, 0);
  EXPECT_FALSE(run.engaged);
  EXPECT_EQ(run.max_wait, RateCap::Duration::zero());

  // ACKs with an unchanged count, however slow the drain, change nothing.
  RateCap cap(Time{}, kTrain);
  for (int i = 1; i <= 1000; ++i) {
    const Time now = Time{} + milliseconds(i);
    cap.on_ack(now, i, 0);
    cap.on_sent(now, kTrain);
    cap.on_sent(now, kTrain);
    EXPECT_EQ(cap.wait(now), RateCap::Duration::zero());
  }
  EXPECT_FALSE(cap.engaged());
}

TEST(RateCap, SettlesWithinOneToOneAndAHalfTimesTheDrainRate) {
  // A sender that could go 6x (1 KiB trains) or 3x faster than its
  // receiver drains: once the first drops show, the cap holds it within
  // [1, 1.5] times the drain rate, and it sends at least as fast as
  // the receiver drains.
  const struct {
    double drain_per_s;
    std::int64_t queue_packets;
    microseconds send_gap;
  } cases[] = {{500e3, 1900, microseconds(20)}, {150e3, 256, microseconds(140)}};
  for (const auto& c : cases) {
    SCOPED_TRACE(c.drain_per_s);
    const auto run = simulate(c.drain_per_s, c.queue_packets, c.send_gap, milliseconds(400));
    ASSERT_TRUE(run.engaged);
    EXPECT_GE(run.min_rate, c.drain_per_s);
    EXPECT_LE(run.max_rate, 1.5 * c.drain_per_s);
    EXPECT_GE(run.mean_send_rate, c.drain_per_s);
    EXPECT_LE(run.mean_send_rate, 1.5 * c.drain_per_s);
  }
}

TEST(RateCap, NeverFallsBelowItsFloor) {
  RateCap cap(Time{}, kTrain);
  EXPECT_DOUBLE_EQ(cap.floor_rate(), kTrain / 1e-3);
  // Drops on every ACK while the receiver takes nothing in: the drain
  // is zero, yet every cut stops at the floor.
  for (int i = 1; i <= 200; ++i) {
    const Time now = Time{} + milliseconds(i);
    cap.on_ack(now, 10, static_cast<std::uint16_t>(i));
    ASSERT_TRUE(cap.engaged());
    EXPECT_GE(cap.rate(), cap.floor_rate());
  }
}

TEST(RateCap, AWindowThatCaughtTheReceiverStalledCutsToHalfItsBestDrain) {
  RateCap cap(Time{}, kTrain);
  // 1000 datagrams per ms for 10 ms, no drops; then a 2 ms stall with
  // drops: the cut takes half the best drain, not the stalled window.
  std::int64_t received = 0;
  for (int i = 1; i <= 10; ++i) cap.on_ack(Time{} + milliseconds(i), received += 1000, 0);
  ASSERT_FALSE(cap.engaged());
  cap.on_ack(Time{} + milliseconds(12), received + 10, 1);
  ASSERT_TRUE(cap.engaged());
  EXPECT_NEAR(cap.rate(), RateCap::kMargin * RateCap::kStallFloor * 1e6, 1e3);
}

TEST(RateCap, NeverDelaysATrainByMoreThanOneStallInterval) {
  // The smallest stall interval a flow has is 1 ms (FlowSession clamps
  // timeout / kStallIntervals to at least 1 ms); the cap holds a train
  // at most kFloorGap, whatever the ACKs say and however much was sent.
  static_assert(RateCap::kFloorGap <= milliseconds(1));
  util::Rng rng(0xCA9);
  RateCap cap(Time{}, kTrain);
  Time now{};
  std::int64_t received = 0;
  std::uint16_t drops = 0;
  for (int i = 0; i < 20'000; ++i) {
    now += microseconds(rng.uniform_int(0, 300));
    if (rng.bernoulli(0.3)) {
      received += rng.uniform_int(0, 200);
      if (rng.bernoulli(0.5)) drops = static_cast<std::uint16_t>(drops + rng.uniform_int(1, 5));
      cap.on_ack(now, received, drops);
    }
    cap.on_sent(now, rng.uniform_int(1, 2 * kTrain));
    ASSERT_LE(cap.wait(now), RateCap::kFloorGap);
  }
  EXPECT_TRUE(cap.engaged());
}

TEST(RateCap, CutsAtMostOncePerIntervalAndFromTheDrainNotTheRate) {
  RateCap cap(Time{}, kTrain);
  // The receiver takes 1000 datagrams per ms; every ACK shows drops.
  double rate = 0.0;
  Time last_change{};
  for (int i = 1; i <= 400; ++i) {
    const Time now = Time{} + microseconds(100 * i);
    cap.on_ack(now, 100 * i, static_cast<std::uint16_t>(i));
    if (cap.rate() != rate) {
      if (rate != 0.0) {
        EXPECT_GE(now - last_change, RateCap::kCutInterval);
      }
      rate = cap.rate();
      last_change = now;
      // Every cut lands at the margin above the drain: cuts do not
      // compound.
      EXPECT_NEAR(rate, RateCap::kMargin * 1e6, 1e3);
    }
  }
}

TEST(RateCap, ACountThatGoesBackIsARestartedReceiverNotNewDrops) {
  RateCap cap(Time{}, kTrain);
  cap.on_ack(Time{} + milliseconds(1), 100, 500);
  ASSERT_TRUE(cap.engaged());
  const double rate = cap.rate();
  // A new socket counts from 0 again, and its receiver from 0 packets:
  // neither is a cut.
  cap.on_ack(Time{} + milliseconds(10), 0, 0);
  cap.on_ack(Time{} + milliseconds(10), 0, 0);
  EXPECT_GE(cap.rate(), rate);
}

}  // namespace
}  // namespace fobs

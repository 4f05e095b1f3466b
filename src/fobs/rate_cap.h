// Sans-io send-rate cap for the real-socket sender, driven by the
// receiver's socket-queue drops: the receiver sets the pace.
//
// A greedy FOBS sender that outruns its receiver loses the excess at
// the receiver's full socket queue, and pays for it in resends. The
// receiver stamps its socket's cumulative queue-drop count on every ACK
// (bytes 6-7, mod 2^16), next to `total_received`. The cap:
//  * stays off until an ACK shows new drops;
//  * then cuts to kMargin above the receiver's drain rate, the rate at
//    which `total_received` grew over the sender's clock in the last
//    drain window, taken as at least kStallFloor of the best drain
//    any window showed: a window that caught the receiver
//    stalled (a burst of page faults, a descheduled thread) reads near
//    zero, and cutting to it idles the sender long after the receiver
//    is back. A cut sets the rate from the drain, never from the rate
//    before it, so cuts do not compound; and it cuts at most once per
//    kCutInterval, so the drops one overrun leaves queued behind it
//    count once;
//  * probes upward on ACKs that show no new drops, once per
//    kProbeInterval: by kRecoveryStep while below the best drain rate
//    the receiver has shown (a cut taken while the receiver was still
//    cold recovers in a few ms), by kProbeStep above it;
//  * never holds a train more than kFloorGap after the previous one,
//    so it can never stop a flow.
// The time is passed in; the cap has no clock of its own. Simulated
// receivers stamp no drops, so no simulated sender has a cap.
#pragma once

#include <chrono>
#include <cstdint>

namespace fobs::core {

class RateCap {
 public:
  using Time = std::chrono::steady_clock::time_point;
  using Duration = std::chrono::steady_clock::duration;

  /// A cut sets the rate this far above the measured drain rate.
  static constexpr double kMargin = 1.125;
  /// ...taking the drain as at least this share of the best one seen.
  static constexpr double kStallFloor = 0.5;
  static constexpr Duration kCutInterval = std::chrono::milliseconds(4);
  static constexpr Duration kProbeInterval = std::chrono::milliseconds(1);
  /// Probe steps: fast while the cap is below the best drain rate the
  /// receiver has shown, slow above it.
  static constexpr double kRecoveryStep = 1.25;
  static constexpr double kProbeStep = 1.0625;
  /// The drain rate is measured over windows of at least this long.
  static constexpr Duration kDrainWindow = std::chrono::milliseconds(1);
  /// The longest the cap holds a train back.
  static constexpr Duration kFloorGap = std::chrono::milliseconds(1);

  /// `train_packets`: the datagrams of one full train, which the floor
  /// lets through every kFloorGap.
  RateCap(Time start, std::int64_t train_packets);

  /// An ACK arrived at `now`: the receiver holds `total_received`
  /// packets, and its socket has dropped `queue_drops` (mod 2^16).
  void on_ack(Time now, std::int64_t total_received, std::uint16_t queue_drops);
  /// How long the next train must wait; zero when it may leave now.
  [[nodiscard]] Duration wait(Time now) const;
  /// A train of `datagrams` left at `now`.
  void on_sent(Time now, std::int64_t datagrams);

  [[nodiscard]] bool engaged() const { return rate_ > 0.0; }
  /// The cap in datagrams per second; 0 while off.
  [[nodiscard]] double rate() const { return rate_; }
  /// The lowest cap: one train per kFloorGap.
  [[nodiscard]] double floor_rate() const;

 private:
  const std::int64_t train_packets_;
  double rate_ = 0.0;
  /// The last whole drain window's rate (datagrams per second), and the
  /// start of the current window.
  double drain_ = 0.0;
  double best_drain_ = 0.0;
  Time window_start_;
  std::int64_t window_received_ = 0;
  std::uint16_t drops_seen_ = 0;
  Time last_cut_;
  Time last_probe_;
  /// The earliest time the next train may leave.
  Time next_send_;
};

}  // namespace fobs::core

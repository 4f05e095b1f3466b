// Congestion-adaptive greediness (the paper's §7 future work).
//
// Plain FOBS is deliberately greedy: it never slows down, assuming loss
// is inevitable and tolerable. The paper closes by sketching two
// remedies for congested networks; this implements the second one —
// "mechanisms to decrease the greediness of FOBS when congestion in the
// network is detected (and is of sufficient duration)".
//
// The controller estimates the loss rate from acknowledgement deltas:
// between two ACKs the sender knows how many packets it launched and
// how many the receiver reports newly received; a sustained shortfall
// is congestion. When the smoothed loss estimate stays above a high
// threshold the controller inserts a growing inter-batch pacing gap;
// when it falls below a low threshold the gap decays back toward zero
// (full greediness).
#pragma once

#include <cstdint>

#include "common/units.h"

namespace fobs::core {

using fobs::util::Duration;

/// Tuning of the controller and of the TCP fallback. Fixed: no caller
/// ever varied them, so they are constants rather than settings.
/// EWMA smoothing factor for the loss estimate.
inline constexpr double kEwmaAlpha = 0.2;
/// Loss estimate above this (for kSustainAcks ACKs) means back off.
inline constexpr double kHighLossThreshold = 0.08;
/// Loss estimate below this means speed back up.
inline constexpr double kLowLossThreshold = 0.02;
/// Consecutive high-loss ACKs required before the first backoff
/// ("congestion of more than temporary duration").
inline constexpr int kSustainAcks = 4;
/// Gap growth/decay factors.
inline constexpr double kBackoffFactor = 1.5;
inline constexpr double kRecoveryFactor = 0.8;
/// Gap bounds. The initial backoff jumps straight to kSeedGap.
inline constexpr Duration kSeedGap = Duration::microseconds(20);
inline constexpr Duration kMaxGap = Duration::milliseconds(2);
/// Enter fallback when the pacing gap has grown to at least this. It
/// takes a *second* sustained-congestion verdict (kSeedGap *
/// kBackoffFactor), so the ordinary burstiness of a shared path does
/// not flap the transfer onto TCP.
inline constexpr Duration kFallbackWhenGapAtLeast = Duration::microseconds(30);
/// While in fallback, inspect the TCP channel at this period...
inline constexpr Duration kFallbackProbeInterval = Duration::milliseconds(250);
/// ...and return to greedy UDP after this many consecutive probe
/// intervals without TCP retransmissions.
inline constexpr int kFallbackClearProbes = 4;
/// Cap on un-acked bytes offered to the fallback TCP channel. Sized
/// generously so TCP's own congestion window is the real limiter; this
/// bound only stops the whole object being buffered at once.
inline constexpr std::int64_t kFallbackWindowBytes = 4 * 1024 * 1024;

/// The extension's two switches, set per simulated transfer
/// (SimTransferConfig::adaptive). Only the simulated sender runs the
/// extension; no POSIX option names it.
struct AdaptiveConfig {
  bool enabled = false;
  /// §7's *first* option: on sustained congestion, switch the transfer
  /// to a TCP data channel (congestion-controlled), then probe and
  /// switch back to greedy UDP once the congestion dissipates.
  /// Requires `enabled`; without it only the pacing-gap mechanism runs.
  bool tcp_fallback = false;
};

/// Loss-estimating pacing controller. Sans-io: the simulated sender
/// feeds it ACK deltas and adds `gap()` of idle time per batch.
class GreedinessController {
 public:
  explicit GreedinessController(AdaptiveConfig config) : config_(config) {}

  /// Feeds one acknowledgement: `sent_since_last` packets were launched
  /// since the previous ACK, of which the receiver newly reports
  /// `newly_received`.
  void on_ack(std::int64_t sent_since_last, std::int64_t newly_received);

  /// Extra idle time the sender should insert per batch right now.
  [[nodiscard]] Duration gap() const { return gap_; }
  [[nodiscard]] double loss_estimate() const { return loss_ewma_; }
  [[nodiscard]] bool backing_off() const { return gap_ > Duration::zero(); }
  /// True when pacing alone is not containing the loss — the trigger
  /// for the TCP-fallback mode.
  [[nodiscard]] bool congested() const {
    return config_.tcp_fallback && gap_ >= kFallbackWhenGapAtLeast;
  }
  /// Forgets all congestion state (used when returning from fallback:
  /// the network is being re-probed from a clean slate).
  void reset() {
    loss_ewma_ = 0.0;
    high_streak_ = 0;
    gap_ = Duration::zero();
  }

 private:
  AdaptiveConfig config_;
  double loss_ewma_ = 0.0;
  int high_streak_ = 0;
  Duration gap_ = Duration::zero();
};

}  // namespace fobs::core

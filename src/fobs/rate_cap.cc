#include "fobs/rate_cap.h"

#include <algorithm>

namespace fobs::core {

namespace {

double seconds(RateCap::Duration d) { return std::chrono::duration<double>(d).count(); }

RateCap::Duration from_seconds(double s) {
  return std::chrono::duration_cast<RateCap::Duration>(std::chrono::duration<double>(s));
}

}  // namespace

RateCap::RateCap(Time start, std::int64_t train_packets)
    : train_packets_(std::max<std::int64_t>(1, train_packets)),
      window_start_(start),
      last_cut_(start),
      last_probe_(start),
      next_send_(start) {}

double RateCap::floor_rate() const {
  return static_cast<double>(train_packets_) / seconds(kFloorGap);
}

void RateCap::on_ack(Time now, std::int64_t total_received, std::uint16_t queue_drops) {
  const Duration window = now - window_start_;
  if (total_received < window_received_) {
    // A restarted receiver counts from its checkpoint again.
    window_start_ = now;
    window_received_ = total_received;
  } else if (window >= kDrainWindow) {
    drain_ = static_cast<double>(total_received - window_received_) / seconds(window);
    best_drain_ = std::max(best_drain_, drain_);
    window_start_ = now;
    window_received_ = total_received;
  }
  // Serial-number arithmetic: a count that went back belongs to a
  // restarted receiver's new socket, not to new drops.
  const auto fresh = static_cast<std::uint16_t>(queue_drops - drops_seen_);
  drops_seen_ = queue_drops;
  if (fresh != 0 && fresh < 0x8000) {
    if (engaged() && now - last_cut_ < kCutInterval) return;
    double drain = drain_;
    if (drain <= 0.0 && window > Duration::zero()) {
      // No whole window yet: the drain since the first sample.
      drain = static_cast<double>(total_received - window_received_) / seconds(window);
    }
    rate_ = std::max(floor_rate(), kMargin * std::max(drain, kStallFloor * best_drain_));
    last_cut_ = last_probe_ = now;
  } else if (engaged() && now - last_probe_ >= kProbeInterval) {
    rate_ *= rate_ < best_drain_ ? kRecoveryStep : kProbeStep;
    last_probe_ = now;
  }
}

RateCap::Duration RateCap::wait(Time now) const {
  if (!engaged() || next_send_ <= now) return Duration::zero();
  return next_send_ - now;
}

void RateCap::on_sent(Time now, std::int64_t datagrams) {
  if (!engaged()) {
    next_send_ = now;
    return;
  }
  // A train may leave up to one train's time after its slot without
  // losing it (the pump's wake-ups are not exact), and never waits more
  // than kFloorGap.
  const Time earliest = now - from_seconds(static_cast<double>(train_packets_) / rate_);
  next_send_ = std::min(std::max(next_send_, earliest) +
                            from_seconds(static_cast<double>(datagrams) / rate_),
                        now + kFloorGap);
}

}  // namespace fobs::core

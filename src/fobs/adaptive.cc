#include "fobs/adaptive.h"

#include <algorithm>

namespace fobs::core {

void GreedinessController::on_ack(std::int64_t sent_since_last, std::int64_t newly_received) {
  if (!config_.enabled) return;
  if (sent_since_last <= 0) return;  // nothing launched: no information
  // Instantaneous shortfall. When the pipe is in steady state the
  // receiver's delta matches the send rate; a persistent shortfall is
  // loss (transient mismatches are smoothed away by the EWMA).
  double inst = 1.0 - static_cast<double>(newly_received) / static_cast<double>(sent_since_last);
  inst = std::clamp(inst, 0.0, 1.0);
  loss_ewma_ = (1.0 - kEwmaAlpha) * loss_ewma_ + kEwmaAlpha * inst;

  // "Of more than temporary duration": both the instantaneous and the
  // smoothed estimates must stay high for a run of ACKs. A single bad
  // ACK leaves an EWMA tail but its instantaneous successors are clean,
  // so the streak resets.
  if (inst > kHighLossThreshold && loss_ewma_ > kHighLossThreshold) {
    if (++high_streak_ >= kSustainAcks) {
      gap_ = gap_ == Duration::zero()
                 ? kSeedGap
                 : std::min(kMaxGap, gap_ * kBackoffFactor);
      high_streak_ = 0;  // require sustained loss again before growing more
    }
  } else {
    high_streak_ = 0;
    if (loss_ewma_ < kLowLossThreshold && gap_ > Duration::zero()) {
      gap_ = gap_ * kRecoveryFactor;
      if (gap_ < Duration::microseconds(1)) gap_ = Duration::zero();
    }
  }
}

}  // namespace fobs::core

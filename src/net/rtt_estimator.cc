#include "net/rtt_estimator.h"

#include <algorithm>

namespace fobs::net {

void RttEstimator::add_sample(Duration rtt) {
  if (rtt < Duration::zero()) rtt = Duration::zero();
  if (!has_sample_) {
    srtt_ = rtt;
    rttvar_ = rtt / 2;
    has_sample_ = true;
  } else {
    const Duration err = srtt_ > rtt ? srtt_ - rtt : rtt - srtt_;
    rttvar_ = rttvar_ * (1.0 - kRttvarGain) + err * kRttvarGain;
    srtt_ = srtt_ * (1.0 - kSrttGain) + rtt * kSrttGain;
  }
  base_rto_ = srtt_ + std::max(Duration::milliseconds(1), rttvar_ * 4.0);
  base_rto_ = std::clamp(base_rto_, kMinRto, kMaxRto);
  backoff_count_ = 0;
}

Duration RttEstimator::rto() const {
  Duration rto = base_rto_;
  for (int i = 0; i < backoff_count_; ++i) {
    rto = rto * 2;
    if (rto >= kMaxRto) return kMaxRto;
  }
  return std::min(rto, kMaxRto);
}

void RttEstimator::backoff() {
  if (backoff_count_ < 16) ++backoff_count_;
}

}  // namespace fobs::net

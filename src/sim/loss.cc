#include "sim/loss.h"

#include <algorithm>

namespace fobs::sim {

std::int64_t fragment_count(std::int64_t size_bytes, std::int64_t mtu_bytes) {
  if (mtu_bytes <= 0 || size_bytes <= mtu_bytes) return 1;
  return (size_bytes + mtu_bytes - 1) / mtu_bytes;
}

BernoulliLoss::BernoulliLoss(double per_fragment_loss, std::int64_t mtu_bytes)
    : p_(std::clamp(per_fragment_loss, 0.0, 1.0)), mtu_(mtu_bytes) {}

void BernoulliLoss::set_probability(double per_fragment_loss) {
  p_ = std::clamp(per_fragment_loss, 0.0, 1.0);
}

bool BernoulliLoss::should_drop(const Packet& packet, fobs::util::Rng& rng) {
  if (p_ <= 0.0) return false;
  const std::int64_t frags = fragment_count(packet.size_bytes, mtu_);
  for (std::int64_t i = 0; i < frags; ++i) {
    if (rng.bernoulli(p_)) return true;
  }
  return false;
}

}  // namespace fobs::sim

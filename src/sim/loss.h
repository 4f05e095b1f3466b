// Random loss attachable to links.
//
// Queue overflow (drop-tail) is modelled by the link itself; a loss model
// adds *random* corruption/loss on top, e.g. for lossy WAN segments. For
// datagrams larger than the link MTU, BernoulliLoss accounts for IP
// fragmentation: the datagram survives only if every fragment survives,
// which is what makes very large UDP packets fragile (Figure 3).
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "sim/packet.h"

namespace fobs::sim {

class LossModel {
 public:
  virtual ~LossModel() = default;
  /// True when the packet should be dropped on this traversal.
  virtual bool should_drop(const Packet& packet, fobs::util::Rng& rng) = 0;
};

/// Independent per-fragment loss.
class BernoulliLoss final : public LossModel {
 public:
  /// @param per_fragment_loss probability a single <=MTU fragment is lost
  /// @param mtu_bytes fragmentation threshold (payload view); 0 disables
  ///        fragmentation accounting.
  explicit BernoulliLoss(double per_fragment_loss, std::int64_t mtu_bytes = 1500);

  /// Changes the per-fragment loss probability while the simulation runs
  /// (scenario loss phases flip it).
  void set_probability(double per_fragment_loss);

  bool should_drop(const Packet& packet, fobs::util::Rng& rng) override;

 private:
  double p_;
  std::int64_t mtu_;
};

/// Number of <=MTU fragments a datagram of `size_bytes` occupies.
[[nodiscard]] std::int64_t fragment_count(std::int64_t size_bytes, std::int64_t mtu_bytes);

}  // namespace fobs::sim

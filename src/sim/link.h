// Unidirectional point-to-point link with a drop-tail queue.
//
// A link models: a FIFO byte-bounded output queue, store-and-forward
// serialization at `rate`, fixed propagation delay, and (optionally) a
// random LossModel. Drop-tail on queue overflow is the congestion-loss
// mechanism of the whole simulator. Links form chains through routers.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>

#include "common/rng.h"
#include "common/units.h"
#include "sim/loss.h"
#include "sim/packet.h"
#include "sim/simulation.h"

namespace fobs::sim {

using fobs::util::DataRate;
using fobs::util::DataSize;

struct LinkConfig {
  std::string name = "link";
  DataRate rate = DataRate::megabits_per_second(100);
  Duration propagation_delay = Duration::zero();
  /// Queue capacity in bytes (the packet being transmitted does not
  /// count against it).
  std::int64_t queue_capacity_bytes = 256 * 1024;
  /// Uniform extra per-packet propagation in [0, jitter]: models
  /// parallel internal switch paths. Nonzero jitter reorders packets —
  /// harmless to FOBS (order-agnostic bitmap) but a dup-ack generator
  /// for TCP.
  Duration jitter = Duration::zero();
};

struct LinkStats {
  std::uint64_t packets_offered = 0;
  std::uint64_t packets_delivered = 0;
  std::uint64_t drops_overflow = 0;
  std::uint64_t drops_random = 0;
  std::int64_t bytes_delivered = 0;
  Duration busy_time = Duration::zero();

  [[nodiscard]] double utilization(Duration elapsed) const {
    if (elapsed <= Duration::zero()) return 0.0;
    return busy_time / elapsed;
  }
};

class Link final : public PacketSink {
 public:
  Link(Simulation& sim, LinkConfig config);

  Link(const Link&) = delete;
  Link& operator=(const Link&) = delete;

  /// Where transmitted packets go (next hop's ingress). Must be set
  /// before traffic flows.
  void set_sink(PacketSink* sink) { sink_ = sink; }

  /// Attaches a random loss model applied per traversal.
  void set_loss_model(std::unique_ptr<LossModel> model, fobs::util::Rng rng);

  /// Offers a packet to the queue (drop-tail).
  void deliver(Packet packet) override;

  /// True when the queue currently has room for `bytes` more.
  [[nodiscard]] bool has_room_for(std::int64_t bytes) const {
    return queued_bytes_ + bytes <= config_.queue_capacity_bytes;
  }
  [[nodiscard]] std::int64_t queued_bytes() const { return queued_bytes_; }

  /// Invoked whenever queue occupancy decreases; used by endpoints that
  /// model select()-style blocking on a full socket/NIC buffer.
  void set_space_callback(std::function<void()> cb) { space_cb_ = std::move(cb); }

  [[nodiscard]] const LinkStats& stats() const { return stats_; }
  [[nodiscard]] const LinkConfig& config() const { return config_; }
  [[nodiscard]] const std::string& name() const { return config_.name; }

 private:
  void start_transmission();
  void finish_transmission();

  Simulation& sim_;
  LinkConfig config_;
  PacketSink* sink_ = nullptr;
  std::deque<Packet> queue_;
  std::int64_t queued_bytes_ = 0;
  bool transmitting_ = false;
  Packet in_flight_;
  std::unique_ptr<LossModel> loss_;
  fobs::util::Rng loss_rng_;
  std::function<void()> space_cb_;
  LinkStats stats_;
};

}  // namespace fobs::sim

// Background (cross) traffic.
//
// The paper's long-haul and NCSA-CACR paths were shared Abilene routes
// whose contention is what collapses TCP and dents FOBS/PSockets. An
// OnOffSource injects packets addressed to a blackhole node into a
// chosen ingress (normally the bottleneck link), reproducing that
// contention with controllable intensity.
#pragma once

#include <cstdint>

#include "common/rng.h"
#include "common/units.h"
#include "sim/packet.h"
#include "sim/simulation.h"

namespace fobs::sim {

using fobs::util::DataRate;
using fobs::util::Rng;

struct CrossTrafficStats {
  std::uint64_t packets_sent = 0;
  std::int64_t bytes_sent = 0;
};

/// Exponential on/off source: emits fixed-size packets into `target`,
/// addressed to `dst`, in bursts at `peak_rate` for ~mean_on, then stays
/// silent for ~mean_off. Aggregates of these look like real WAN
/// cross-traffic (bursty, heavy queues during bursts).
class OnOffSource {
 public:
  OnOffSource(Simulation& sim, PacketSink& target, NodeId src, NodeId dst,
              std::int64_t packet_bytes, DataRate peak_rate, Duration mean_on,
              Duration mean_off, Rng rng);

  OnOffSource(const OnOffSource&) = delete;
  OnOffSource& operator=(const OnOffSource&) = delete;

  /// Begins emitting; idempotent.
  void start();
  /// Stops after any already-scheduled emission.
  void stop() { running_ = false; }

  [[nodiscard]] const CrossTrafficStats& stats() const { return stats_; }

 private:
  /// Gap to the next packet: the peak-rate gap inside a burst, else an
  /// off period that starts the next burst.
  Duration next_gap();
  void emit_and_reschedule();

  Simulation& sim_;
  Rng rng_;
  PacketSink& target_;
  NodeId src_;
  NodeId dst_;
  std::int64_t packet_bytes_;
  Duration peak_gap_;
  Duration mean_on_;
  Duration mean_off_;
  TimePoint burst_end_;
  bool in_burst_ = false;
  bool running_ = false;
  CrossTrafficStats stats_;
  std::uint64_t next_uid_ = 1;
};

}  // namespace fobs::sim

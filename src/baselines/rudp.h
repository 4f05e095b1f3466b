// Reliable Blast UDP (RUDP, Leigh et al.) baseline.
//
// The sender blasts every (still-missing) packet over UDP at a
// configured rate with no feedback during the pass, then signals
// "pass done" over TCP; the receiver replies with the list of missing
// packets, and the cycle repeats until nothing is missing. RUDP was
// designed for QoS-enabled networks with near-zero loss — on lossy or
// receiver-bound paths its whole-pass feedback delay makes it waste
// bandwidth, which is exactly the contrast the paper draws with FOBS.
#pragma once

#include <cstdint>

#include "fobs/types.h"
#include "host/host.h"
#include "sim/node.h"

namespace fobs::baselines {

using fobs::host::Host;
using fobs::util::DataRate;
using fobs::util::Duration;

struct RudpConfig {
  fobs::core::TransferSpec spec;
  /// Blast pacing rate; zero means "as fast as the NIC accepts".
  DataRate send_rate = DataRate::zero();
};

struct RudpResult {
  bool completed = false;
  int passes = 0;  ///< blast rounds needed
  Duration elapsed = Duration::zero();
  double goodput_mbps = 0.0;
  std::int64_t packets_needed = 0;
  std::int64_t packets_sent = 0;
  double waste = 0.0;
  std::uint64_t receiver_socket_drops = 0;

  [[nodiscard]] double fraction_of(DataRate max) const {
    if (max.is_zero()) return 0.0;
    return goodput_mbps * 1e6 / max.bps();
  }
};

RudpResult run_rudp_transfer(fobs::sim::Network& network, Host& src, Host& dst,
                             const RudpConfig& config);

}  // namespace fobs::baselines

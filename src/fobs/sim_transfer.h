// FOBS object transfers between simulated hosts: the simulator's one
// driver, for N >= 1 concurrent transfers.
//
// Owns the object buffers, wires a sender and a receiver for each
// transfer, runs one event loop until every transfer has finished,
// stalled or passed its deadline, verifies data integrity, and reports
// the metrics the paper's figures use.
#pragma once

#include <cstdint>
#include <vector>

#include "common/units.h"
#include "fobs/adaptive.h"
#include "fobs/receiver_core.h"
#include "fobs/sender_core.h"
#include "host/host.h"
#include "net/faults.h"
#include "sim/node.h"
#include "telemetry/trace.h"

namespace fobs::core {

using fobs::util::Duration;
using fobs::util::TimePoint;

struct SimTransferConfig {
  TransferSpec spec{.object_bytes = 40 * 1024 * 1024, .packet_bytes = 1024};
  SenderConfig sender;
  ReceiverConfig receiver;
  /// The paper's §7 extension, run by the simulated sender only
  /// (off by default: plain FOBS has no congestion control).
  AdaptiveConfig adaptive;
  /// Receiver UDP socket buffer (overflow == loss during busy periods).
  std::int64_t receiver_socket_buffer_bytes = 64 * 1024;
  /// Give up after this much simulated time.
  Duration timeout = Duration::seconds(600);
  /// Allocate and verify real payload bytes (off = faster, size-only).
  bool carry_data = true;
  /// Optional per-endpoint event tracers (must outlive the call; may be
  /// the same tracer for one merged timeline). Null = telemetry off.
  fobs::telemetry::EventTracer* sender_tracer = nullptr;
  fobs::telemetry::EventTracer* receiver_tracer = nullptr;
  /// Fault schedule applied to this transfer (empty = clean run; the
  /// golden regressions rely on an empty plan changing nothing).
  fobs::net::FaultPlan fault_plan;
};

struct SimTransferResult {
  bool completed = false;
  /// The receiver holds the whole object (it may still be waiting for
  /// the sender to learn so).
  bool receiver_complete = false;
  /// Start -> receiver holds the whole object (goodput clock).
  Duration receiver_elapsed = Duration::zero();
  /// Start -> sender learns of completion (paper's "transfer done").
  Duration sender_elapsed = Duration::zero();
  double goodput_mbps = 0.0;
  std::int64_t packets_needed = 0;
  /// Data packets sent, TCP-fallback sends included.
  std::int64_t packets_sent = 0;
  /// (sent - needed) / needed, the paper's wasted-resources metric.
  double waste = 0.0;
  std::uint64_t receiver_socket_drops = 0;
  std::uint64_t acks_sent = 0;
  std::int64_t duplicates_at_receiver = 0;
  /// Checksum-failing packets rejected (data at receiver + ACKs at
  /// sender); non-zero only when a fault plan injects corruption.
  std::int64_t corrupt_drops = 0;
  /// §7 TCP fallback: episodes entered and packets handed to TCP.
  int fallback_episodes = 0;
  std::int64_t packets_via_tcp = 0;
  /// True when the run was terminated by stall detection (no progress
  /// for kStallIntervals consecutive checks of timeout / kStallIntervals
  /// on both sides) rather than completing.
  bool stalled = false;
  bool data_verified = false;  ///< true when carry_data and bytes match

  /// Fraction of `max` achieved by goodput.
  [[nodiscard]] double fraction_of(fobs::util::DataRate max) const {
    if (max.is_zero()) return 0.0;
    return goodput_mbps * 1e6 / max.bps();
  }
};

/// One transfer of a run: the object goes from `sender` to `receiver`
/// over whatever topology already connects them.
struct SimTransfer {
  fobs::host::Host& sender;
  fobs::host::Host& receiver;
  SimTransferConfig config;
};

/// Runs every transfer concurrently in `network`'s simulation and
/// returns one result per transfer, in order. Transfer i uses its own
/// block of ports, so any number may share one host pair. Each result
/// is taken when its transfer ends (finished, stalled or at its
/// deadline, before any event due there runs), and both its endpoints
/// stop there, so a stalled transfer loads no shared link after its
/// end; the run ends when all have.
std::vector<SimTransferResult> run_sim_transfers(fobs::sim::Network& network,
                                                 const std::vector<SimTransfer>& transfers);

/// The one-transfer form of run_sim_transfers.
SimTransferResult run_sim_transfer(fobs::sim::Network& network, fobs::host::Host& sender_host,
                                   fobs::host::Host& receiver_host,
                                   const SimTransferConfig& config);

/// Seed of the make_pattern() object (fobs/object.h) a carry_data
/// transfer sends.
inline constexpr std::uint64_t kDataSeed = 0x5EED;

}  // namespace fobs::core

// The TCP baselines: N >= 1 simulated TCP bulk transfers run by one
// driver.
//
// Table 1 is one transfer, with and without the Large Window
// Extensions (`TcpConfig::window_scaling = true` with a receive buffer
// larger than 64 KiB). Table 2's PSockets (Sivakumar, Bailey, Grossman,
// SC2000 — the technique gridftp uses) stripes one object over N TCP
// streams between the same two hosts; its key idea is that the *number*
// of sockets is determined experimentally, and the Table 2 bench runs
// that search over seed-averaged transfers. The multi-flow bench runs
// N transfers on N host pairs sharing one bottleneck.
#pragma once

#include <cstdint>
#include <vector>

#include "host/host.h"
#include "net/tcp.h"
#include "sim/node.h"
#include "telemetry/trace.h"

namespace fobs::baselines {

using fobs::host::Host;
using fobs::util::DataRate;
using fobs::util::Duration;

/// One TCP connection of a run: `bytes` go from `sender` to `receiver`,
/// starting `start` after the run begins.
struct TcpTransfer {
  Host& sender;
  Host& receiver;
  std::int64_t bytes = 0;
  Duration start = Duration::zero();
};

struct TcpRunResult {
  /// Every transfer delivered all its bytes before the deadline.
  bool completed = false;
  /// Run start -> the last transfer delivered (set when completed).
  Duration elapsed = Duration::zero();
  /// All transfers' bytes over `elapsed` (set when completed).
  double goodput_mbps = 0.0;
  /// Per transfer, in order: run start -> its last byte delivered;
  /// zero when it did not finish.
  std::vector<Duration> transfer_elapsed;
  /// Summed over the senders.
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;

  [[nodiscard]] double fraction_of(DataRate max) const {
    if (max.is_zero()) return 0.0;
    return goodput_mbps * 1e6 / max.bps();
  }
};

/// Runs every transfer concurrently in `network`'s simulation, each on
/// its own TCP connection to its own listener port, until all have been
/// delivered in order or 600 simulated seconds have passed. `tracer`
/// (optional, must outlive the call) records transfer_start (seq =
/// transfer count, value = bytes) and completion/timeout (value = bytes
/// delivered) on the sim clock.
TcpRunResult run_tcp_transfers(fobs::sim::Network& network,
                               const std::vector<TcpTransfer>& transfers,
                               const fobs::net::TcpConfig& config,
                               fobs::telemetry::EventTracer* tracer = nullptr);

/// PSockets: `bytes` from `src` to `dst` striped over `streams` TCP
/// streams, split as FOBS stripes are (fobs/stripe/plan.h). PSockets
/// opens its sockets sequentially, stream i 2 ms after stream i-1; the
/// stagger also desynchronizes the streams' slow starts. One stream is
/// the plain single-stream transfer.
[[nodiscard]] std::vector<TcpTransfer> psockets_transfers(Host& src, Host& dst,
                                                          std::int64_t bytes, int streams);

/// The paper's two single-stream configurations.
[[nodiscard]] fobs::net::TcpConfig tcp_with_lwe();
[[nodiscard]] fobs::net::TcpConfig tcp_without_lwe();

/// Per-stream TCP configuration matching PSockets' premise: stock
/// sockets with a modest (unprivileged) buffer, so the *number* of
/// sockets is what builds an aggregate window near the path BDP.
[[nodiscard]] fobs::net::TcpConfig psockets_stream_config(
    std::int64_t per_socket_buffer_bytes = 256 * 1024);

}  // namespace fobs::baselines

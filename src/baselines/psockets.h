// PSockets baseline: application-level striping over N parallel TCP
// streams (Sivakumar, Bailey, Grossman, SC2000) — the paper's Table 2
// comparator and the technique gridftp uses.
//
// The data is striped round-robin-by-size: each stream carries
// bytes / N (the last stream takes the remainder). PSockets' key idea is
// that the *number* of sockets is determined experimentally; the Table 2
// bench runs that search over seed-averaged transfers.
#pragma once

#include <cstdint>

#include "host/host.h"
#include "net/tcp.h"
#include "sim/node.h"
#include "telemetry/trace.h"

namespace fobs::baselines {

using fobs::host::Host;
using fobs::util::DataRate;
using fobs::util::Duration;

struct PsocketsResult {
  bool completed = false;
  int streams = 0;
  Duration elapsed = Duration::zero();
  double goodput_mbps = 0.0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;

  [[nodiscard]] double fraction_of(DataRate max) const {
    if (max.is_zero()) return 0.0;
    return goodput_mbps * 1e6 / max.bps();
  }
};

/// Transfers `bytes` from `src` to `dst` striped over `streams` TCP
/// connections; completes when every stripe has been delivered.
PsocketsResult run_psockets_transfer(fobs::sim::Network& network, Host& src, Host& dst,
                                     std::int64_t bytes, int streams,
                                     const fobs::net::TcpConfig& per_stream_config,
                                     Duration timeout = Duration::seconds(600),
                                     fobs::telemetry::EventTracer* tracer = nullptr);

/// Per-stream TCP configuration matching PSockets' premise: stock
/// sockets with a modest (unprivileged) buffer, so the *number* of
/// sockets is what builds an aggregate window near the path BDP.
[[nodiscard]] fobs::net::TcpConfig psockets_stream_config(
    std::int64_t per_socket_buffer_bytes = 256 * 1024);

}  // namespace fobs::baselines

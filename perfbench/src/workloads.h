// The benchmark's workloads and the per-layer replays they share.
#pragma once

#include <cstdint>
#include <string>

#include "report.h"

namespace perfbench {

/// Object size of every fetch and simulated transfer in self-test mode.
inline constexpr std::int64_t kShortObjectBytes = 4 << 20;

/// Shape of one loopback fetch.
struct FetchGeometry {
  std::int64_t object_bytes = 0;
  std::int64_t packet_bytes = 0;
  int stripes = 1;
};

/// fetch_1k / fetch_8k_x2. Untraced: closed-loop fetch_file calls
/// against an in-process FileServer, reporting the end-to-end metrics.
/// Traced: pairs of untraced and traced fetches, the layer replays at
/// `geometry`, and measure_sim_layer, reporting the per-layer metrics.
void run_fetch_workload(const RunConfig& config, const FetchGeometry& geometry, SpanLog& spans,
                        Report& report);

/// sim.run_ms_p50 and sim.pkts_per_s from simulated transfers at
/// `geometry`, run twice per seed. Fails incomplete runs, and a second
/// pass whose digest differs from the first; notes the digest.
void measure_sim_layer(const FetchGeometry& geometry, std::uint64_t seed, SpanLog& spans,
                       std::uint64_t parent, Report& report);

/// Inputs of the per-layer replays.
struct LayerInputs {
  std::int64_t object_bytes = 0;       ///< whole object: placement, sync
  std::int64_t flow_object_bytes = 0;  ///< one flow's share: cores, checkpoint
  std::int64_t packet_bytes = 0;
  /// Share of data packets the core replay loses (from the measured waste).
  double drop_fraction = 0.0;
  std::string checksum_path;  ///< an object-sized file to checksum
  std::string scratch;
  std::uint64_t seed = 1;
};

/// Per-call costs of each layer's public functions, timed in isolation.
struct LayerCosts {
  double crc32_ns = 0.0;  ///< one payload
  double header_encode_ns = 0.0;
  double header_decode_ns = 0.0;
  double ack_encode_ns = 0.0;
  double ack_decode_ns = 0.0;
  double ack_bytes = 0.0;
  double select_next_ns = 0.0;
  double on_data_packet_ns = 0.0;
  double make_ack_ns = 0.0;
  double on_ack_ns = 0.0;
  double acks_per_send = 0.0;  ///< ACKs per data packet sent in the core replay
  double send_ns_per_dgram = 0.0;
  double recv_ns_per_dgram = 0.0;
  double place_ns_per_pkt = 0.0;
  double checksum_ms = 0.0;
  double sync_ms = 0.0;
  double checkpoint_save_us = 0.0;
  double counter_inc_ns = 0.0;
  double lookup_ns = 0.0;
};

LayerCosts measure_layers(const LayerInputs& inputs, SpanLog& spans, std::uint64_t parent);
void report_layer_costs(const LayerCosts& costs, Report& report);

}  // namespace perfbench

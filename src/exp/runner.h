// Uniform experiment API: run protocol X over paper path Y, get the
// metrics the paper's tables/figures report. Used by the bench binaries
// and the examples.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "baselines/tcp_bulk.h"
#include "exp/testbeds.h"
#include "fobs/sim_transfer.h"

namespace fobs::exp {

/// The paper's canonical workload: a 40 MB object in 1024-byte packets.
inline constexpr std::int64_t kPaperObjectBytes = 40ll * 1024 * 1024;
inline constexpr std::int64_t kPaperPacketBytes = 1024;

struct FobsRunParams {
  std::int64_t object_bytes = kPaperObjectBytes;
  std::int64_t packet_bytes = kPaperPacketBytes;
  std::int64_t ack_frequency = 64;
  int batch_size = 2;
  fobs::core::SelectionKind selection = fobs::core::SelectionKind::kCircular;
  fobs::core::BatchPolicy batch_policy = fobs::core::BatchPolicy::kFixed;
  std::int64_t receiver_socket_buffer_bytes = 64 * 1024;
  bool carry_data = false;  ///< benches default to size-only for speed
  fobs::core::AdaptiveConfig adaptive;  ///< §7 extension, off by default
  /// Optional telemetry tracers (must outlive the run).
  fobs::telemetry::EventTracer* sender_tracer = nullptr;
  fobs::telemetry::EventTracer* receiver_tracer = nullptr;
};

/// Builds the SimTransferConfig corresponding to FobsRunParams.
[[nodiscard]] fobs::core::SimTransferConfig make_fobs_config(const FobsRunParams& params);

/// One FOBS transfer on a fresh testbed; returns the full result.
fobs::core::SimTransferResult run_fobs(const TestbedSpec& spec, const FobsRunParams& params,
                                       std::uint64_t seed = 42);

/// One TCP run on a fresh testbed: `bytes` striped over `streams`
/// connections as PSockets does (baselines::psockets_transfers); one
/// stream is the plain single-stream transfer of Table 1.
fobs::baselines::TcpRunResult run_tcp(const TestbedSpec& spec, std::int64_t bytes,
                                      const fobs::net::TcpConfig& config, int streams,
                                      std::uint64_t seed = 42);

/// The five protocols of the paper's §2 comparison.
enum class Protocol { kFobs, kRudp, kSabul, kPsockets, kTcp };

/// What `simctl`'s flags set for a protocol run, with its defaults.
/// Each protocol reads the values its comment names.
struct ProtocolKnobs {
  std::int64_t object_mib = kPaperObjectBytes / (1024 * 1024);  ///< all
  std::int64_t packet_bytes = kPaperPacketBytes;                 ///< FOBS, RUDP, SABUL
  std::int64_t ack_frequency = 64;                               ///< FOBS
  std::int64_t batch_size = 2;                                   ///< FOBS
  bool adaptive = false;      ///< FOBS: the §7 greediness controller
  bool tcp_fallback = false;  ///< FOBS: the §7 TCP fallback (needs adaptive)
  std::int64_t streams = 16;  ///< PSockets
  bool no_lwe = false;        ///< TCP: a 64 KiB window instead of window scaling
};

/// One protocol's table row.
struct ProtocolRow {
  std::string protocol;  ///< "FOBS", "PSockets-16", "TCP (64K wnd)", ...
  bool completed = false;
  double fraction = 0.0;  ///< of the testbed's max bandwidth
  double goodput_mbps = 0.0;
  double elapsed_s = 0.0;
  std::string notes;  ///< the protocol's own cost: waste, passes, rtx...
};

/// Runs `protocol` once on `bed`, a fresh Testbed or a
/// ScenarioRuntime's. A testbed carries one run: its clock and cross
/// traffic are not reset.
ProtocolRow run_protocol(Testbed& bed, Protocol protocol, const ProtocolKnobs& knobs = {});

/// Means over the completed runs of a seed sweep (network conditions in
/// the paper varied run to run; so do ours).
struct SeedAverage {
  double fraction = 0.0;  ///< of the spec's max bandwidth
  double goodput_mbps = 0.0;
  double waste = 0.0;                 ///< FOBS runs; 0 for TCP
  std::uint64_t retransmissions = 0;  ///< TCP runs: the total, not the mean
  std::uint64_t timeouts = 0;         ///< TCP runs: the total, not the mean
  int completed_runs = 0;
};

/// Calls `run(seed)` for every seed; it returns a
/// core::SimTransferResult or a baselines::TcpRunResult. The completed
/// runs are summed in seed order and divided once.
template <class Run>
SeedAverage average_over_seeds(const TestbedSpec& spec, const std::vector<std::uint64_t>& seeds,
                               Run&& run) {
  SeedAverage avg;
  for (std::uint64_t seed : seeds) {
    const auto result = run(seed);
    if (!result.completed) continue;
    avg.fraction += result.fraction_of(spec.max_bandwidth);
    avg.goodput_mbps += result.goodput_mbps;
    if constexpr (requires { result.waste; }) avg.waste += result.waste;
    if constexpr (requires { result.retransmissions; }) {
      avg.retransmissions += result.retransmissions;
      avg.timeouts += result.timeouts;
    }
    ++avg.completed_runs;
  }
  if (avg.completed_runs > 0) {
    avg.fraction /= avg.completed_runs;
    avg.goodput_mbps /= avg.completed_runs;
    avg.waste /= avg.completed_runs;
  }
  return avg;
}

/// Default seed set used by the benches.
[[nodiscard]] std::vector<std::uint64_t> default_seeds(int count = 5);

}  // namespace fobs::exp

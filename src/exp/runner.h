// Uniform experiment API: run protocol X over paper path Y, get the
// metrics the paper's tables/figures report. Used by the bench binaries
// and the examples.
#pragma once

#include <cstdint>
#include <vector>

#include "baselines/rudp.h"
#include "baselines/sabul.h"
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

/// Averages `fraction`/`waste` over several seeds (network conditions in
/// the paper varied run to run; so do ours).
struct AveragedFobs {
  double fraction = 0.0;
  double waste = 0.0;
  double goodput_mbps = 0.0;
  int completed_runs = 0;
};
AveragedFobs run_fobs_averaged(const TestbedSpec& spec, const FobsRunParams& params,
                               const std::vector<std::uint64_t>& seeds);

/// One TCP run on a fresh testbed: `bytes` striped over `streams`
/// connections as PSockets does (baselines::psockets_transfers); one
/// stream is the plain single-stream transfer of Table 1.
fobs::baselines::TcpRunResult run_tcp(const TestbedSpec& spec, std::int64_t bytes,
                                      const fobs::net::TcpConfig& config, int streams,
                                      std::uint64_t seed = 42);

/// Single-stream run_tcp averaged across seeds.
struct AveragedTcp {
  double fraction = 0.0;
  double goodput_mbps = 0.0;
  std::uint64_t retransmissions = 0;
  std::uint64_t timeouts = 0;
  int completed_runs = 0;
};
AveragedTcp run_tcp_averaged(const TestbedSpec& spec, std::int64_t bytes,
                             const fobs::net::TcpConfig& config,
                             const std::vector<std::uint64_t>& seeds);

/// RUDP / SABUL on fresh testbeds.
fobs::baselines::RudpResult run_rudp(const TestbedSpec& spec,
                                     const fobs::baselines::RudpConfig& config,
                                     std::uint64_t seed = 42);
fobs::baselines::SabulResult run_sabul(const TestbedSpec& spec,
                                       const fobs::baselines::SabulConfig& config,
                                       std::uint64_t seed = 42);

/// Default seed set used by the benches.
[[nodiscard]] std::vector<std::uint64_t> default_seeds(int count = 5);

}  // namespace fobs::exp

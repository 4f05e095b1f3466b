#include "exp/runner.h"

namespace fobs::exp {

fobs::core::SimTransferConfig make_fobs_config(const FobsRunParams& params) {
  fobs::core::SimTransferConfig config;
  config.spec.object_bytes = params.object_bytes;
  config.spec.packet_bytes = params.packet_bytes;
  config.sender.batch_size = params.batch_size;
  config.sender.selection = params.selection;
  config.sender.batch_policy = params.batch_policy;
  config.adaptive = params.adaptive;
  config.receiver.ack_frequency = params.ack_frequency;
  config.receiver_socket_buffer_bytes = params.receiver_socket_buffer_bytes;
  config.carry_data = params.carry_data;
  config.sender_tracer = params.sender_tracer;
  config.receiver_tracer = params.receiver_tracer;
  return config;
}

fobs::core::SimTransferResult run_fobs(const TestbedSpec& spec, const FobsRunParams& params,
                                       std::uint64_t seed) {
  Testbed bed(spec, seed);
  return fobs::core::run_sim_transfer(bed.network(), bed.src(), bed.dst(),
                                      make_fobs_config(params));
}

AveragedFobs run_fobs_averaged(const TestbedSpec& spec, const FobsRunParams& params,
                               const std::vector<std::uint64_t>& seeds) {
  AveragedFobs avg;
  for (std::uint64_t seed : seeds) {
    const auto result = run_fobs(spec, params, seed);
    if (!result.completed) continue;
    avg.fraction += result.fraction_of(spec.max_bandwidth);
    avg.waste += result.waste;
    avg.goodput_mbps += result.goodput_mbps;
    ++avg.completed_runs;
  }
  if (avg.completed_runs > 0) {
    avg.fraction /= avg.completed_runs;
    avg.waste /= avg.completed_runs;
    avg.goodput_mbps /= avg.completed_runs;
  }
  return avg;
}

fobs::baselines::TcpRunResult run_tcp(const TestbedSpec& spec, std::int64_t bytes,
                                      const fobs::net::TcpConfig& config, int streams,
                                      std::uint64_t seed) {
  Testbed bed(spec, seed);
  return fobs::baselines::run_tcp_transfers(
      bed.network(), fobs::baselines::psockets_transfers(bed.src(), bed.dst(), bytes, streams),
      config);
}

AveragedTcp run_tcp_averaged(const TestbedSpec& spec, std::int64_t bytes,
                             const fobs::net::TcpConfig& config,
                             const std::vector<std::uint64_t>& seeds) {
  AveragedTcp avg;
  for (std::uint64_t seed : seeds) {
    const auto result = run_tcp(spec, bytes, config, 1, seed);
    if (!result.completed) continue;
    avg.fraction += result.fraction_of(spec.max_bandwidth);
    avg.goodput_mbps += result.goodput_mbps;
    avg.retransmissions += result.retransmissions;
    avg.timeouts += result.timeouts;
    ++avg.completed_runs;
  }
  if (avg.completed_runs > 0) {
    avg.fraction /= avg.completed_runs;
    avg.goodput_mbps /= avg.completed_runs;
  }
  return avg;
}

fobs::baselines::RudpResult run_rudp(const TestbedSpec& spec,
                                     const fobs::baselines::RudpConfig& config,
                                     std::uint64_t seed) {
  Testbed bed(spec, seed);
  return fobs::baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
}

fobs::baselines::SabulResult run_sabul(const TestbedSpec& spec,
                                       const fobs::baselines::SabulConfig& config,
                                       std::uint64_t seed) {
  Testbed bed(spec, seed);
  return fobs::baselines::run_sabul_transfer(bed.network(), bed.src(), bed.dst(), config);
}

std::vector<std::uint64_t> default_seeds(int count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) seeds.push_back(static_cast<std::uint64_t>(i + 1));
  return seeds;
}

}  // namespace fobs::exp

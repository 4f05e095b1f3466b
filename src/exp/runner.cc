#include "exp/runner.h"

#include <utility>

#include "baselines/rudp.h"
#include "baselines/sabul.h"
#include "common/table.h"

namespace fobs::exp {

namespace {

ProtocolRow tcp_row(Testbed& bed, std::string name, std::int64_t bytes,
                    const fobs::net::TcpConfig& config, int streams) {
  const auto r = fobs::baselines::run_tcp_transfers(
      bed.network(), fobs::baselines::psockets_transfers(bed.src(), bed.dst(), bytes, streams),
      config);
  return {std::move(name), r.completed, r.fraction_of(bed.spec().max_bandwidth),
          r.goodput_mbps, r.elapsed.seconds(),
          std::to_string(r.retransmissions) + " rtx, " + std::to_string(r.timeouts) + " RTOs"};
}

}  // namespace

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

fobs::baselines::TcpRunResult run_tcp(const TestbedSpec& spec, std::int64_t bytes,
                                      const fobs::net::TcpConfig& config, int streams,
                                      std::uint64_t seed) {
  Testbed bed(spec, seed);
  return fobs::baselines::run_tcp_transfers(
      bed.network(), fobs::baselines::psockets_transfers(bed.src(), bed.dst(), bytes, streams),
      config);
}

ProtocolRow run_protocol(Testbed& bed, Protocol protocol, const ProtocolKnobs& knobs) {
  using fobs::util::TextTable;
  const std::int64_t bytes = knobs.object_mib * 1024 * 1024;
  const fobs::util::DataRate max = bed.spec().max_bandwidth;
  switch (protocol) {
    case Protocol::kFobs: {
      FobsRunParams params;
      params.object_bytes = bytes;
      params.packet_bytes = knobs.packet_bytes;
      params.ack_frequency = knobs.ack_frequency;
      params.batch_size = static_cast<int>(knobs.batch_size);
      params.adaptive.enabled = knobs.adaptive;
      params.adaptive.tcp_fallback = knobs.tcp_fallback;
      const auto r = fobs::core::run_sim_transfer(bed.network(), bed.src(), bed.dst(),
                                                  make_fobs_config(params));
      return {"FOBS", r.completed, r.fraction_of(max), r.goodput_mbps,
              r.receiver_elapsed.seconds(), "waste " + TextTable::pct(r.waste, 2)};
    }
    case Protocol::kRudp: {
      fobs::baselines::RudpConfig config;
      config.spec = {bytes, knobs.packet_bytes};
      const auto r =
          fobs::baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
      return {"RUDP", r.completed, r.fraction_of(max), r.goodput_mbps, r.elapsed.seconds(),
              std::to_string(r.passes) + " blast passes, waste " + TextTable::pct(r.waste, 2)};
    }
    case Protocol::kSabul: {
      fobs::baselines::SabulConfig config;
      config.spec = {bytes, knobs.packet_bytes};
      config.initial_rate = max * 0.95;
      const auto r =
          fobs::baselines::run_sabul_transfer(bed.network(), bed.src(), bed.dst(), config);
      return {"SABUL", r.completed, r.fraction_of(max), r.goodput_mbps, r.elapsed.seconds(),
              std::to_string(r.loss_reports) + " loss reports, final rate " +
                  TextTable::num(r.final_rate_mbps, 0) + " Mb/s"};
    }
    case Protocol::kPsockets:
      return tcp_row(bed, "PSockets-" + std::to_string(knobs.streams), bytes,
                     fobs::baselines::psockets_stream_config(),
                     static_cast<int>(knobs.streams));
    case Protocol::kTcp:
      return knobs.no_lwe
                 ? tcp_row(bed, "TCP (64K wnd)", bytes, fobs::baselines::tcp_without_lwe(), 1)
                 : tcp_row(bed, "TCP+LWE", bytes, fobs::baselines::tcp_with_lwe(), 1);
  }
  return {};
}

std::vector<std::uint64_t> default_seeds(int count) {
  std::vector<std::uint64_t> seeds;
  seeds.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) seeds.push_back(static_cast<std::uint64_t>(i + 1));
  return seeds;
}

}  // namespace fobs::exp

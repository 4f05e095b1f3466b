// Quickstart: move a 40 MB object across a simulated wide-area path
// with FOBS in a dozen lines — then move real bytes through real
// sockets with the session engine in a dozen more.
//
//   $ ./quickstart
//
// Part 1 builds the paper's long-haul testbed (ANL -> CACR, ~65 ms RTT,
// 100 Mb/s bottleneck, light loss), runs one FOBS transfer, and prints
// the metrics the paper reports. Part 2 runs a real loopback transfer
// as two sessions of a TransferEngine — the embedding surface for
// anything that moves more than one object at a time.
#include <cstdio>
#include <span>
#include <vector>

#include "exp/runner.h"
#include "fobs/object.h"
#include "fobs/posix/engine.h"

int main() {
  using namespace fobs;

  // 1. A testbed: the paper's long-haul path.
  const auto spec = exp::spec_for(exp::PathId::kLongHaul);

  // 2. Transfer parameters: the paper's defaults (40 MB object, 1 KiB
  //    packets, batches of 2, circular selection, ack every 64 packets).
  exp::FobsRunParams params;
  params.carry_data = true;  // carry and verify real bytes

  // 3. Run it.
  const auto result = exp::run_fobs(spec, params);

  std::printf("FOBS quickstart on %s\n", spec.name.c_str());
  std::printf("  completed:          %s\n", result.completed ? "yes" : "no");
  std::printf("  data verified:      %s\n", result.data_verified ? "yes" : "no");
  std::printf("  goodput:            %.1f Mb/s (%.1f%% of the %.0f Mb/s bottleneck)\n",
              result.goodput_mbps, 100.0 * result.fraction_of(spec.max_bandwidth),
              spec.max_bandwidth.mbps());
  std::printf("  transfer time:      %.2f s (sender learned at %.2f s)\n",
              result.receiver_elapsed.seconds(), result.sender_elapsed.seconds());
  std::printf("  packets:            %lld sent / %lld needed (waste %.1f%%)\n",
              static_cast<long long>(result.packets_sent),
              static_cast<long long>(result.packets_needed), 100.0 * result.waste);
  std::printf("  receiver acks sent: %llu\n",
              static_cast<unsigned long long>(result.acks_sent));
  if (!result.completed || !result.data_verified) return 1;

  // 4. The same protocol over real sockets: submit both endpoints to a
  //    TransferEngine and wait on the handles. status() / cancel() are
  //    available on the handle while it runs.
  const auto object = core::make_pattern(8 * 1024 * 1024, 0x9015);
  std::vector<std::uint8_t> sink(object.size(), 0);
  posix::ReceiverOptions ropt;
  ropt.data_port = 38100;
  ropt.control_port = 38101;
  posix::SenderOptions sopt;
  sopt.data_port = ropt.data_port;
  sopt.control_port = ropt.control_port;

  posix::TransferEngine engine({.workers = 2});
  auto rx = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  auto tx = engine.submit_send(sopt, std::span<const std::uint8_t>(object));
  const auto rx_status = rx.wait();
  const auto tx_status = tx.wait();

  std::printf("\nFOBS over real loopback sockets (engine sessions)\n");
  std::printf("  sender:             %s, %.0f Mb/s\n", to_string(tx_status),
              tx.result().goodput_mbps);
  std::printf("  receiver:           %s, %lld packets\n", to_string(rx_status),
              static_cast<long long>(rx.result().flows[0].packets_received));
  const bool ok = tx.result().completed() && rx.result().completed() && sink == object;
  std::printf("  bytes verified:     %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

// Grid data staging: the scenario that motivates the paper's
// introduction — moving a large scientific dataset from the site that
// produced it to the sites that will compute on or visualize it.
//
// A 200 MB dataset produced at ANL is staged to LCSE (short haul,
// ~26 ms) for visualization and to CACR (long haul, ~65 ms) for
// analysis. We stage with FOBS and, for contrast, with tuned TCP, and
// report per-destination and campaign-level transfer times. A final
// leg stages real bytes to both "sites" at once over loopback sockets
// using the session engine — the concurrent-staging pattern a grid
// scheduler would embed.
#include <cstdio>
#include <span>
#include <string>
#include <vector>

#include "baselines/tcp_bulk.h"
#include "exp/runner.h"
#include "fobs/object.h"
#include "fobs/posix/engine.h"

namespace {

// Stage one dataset to two destinations concurrently: four sessions
// (two senders, two receivers) on one engine, distinguished only by
// port pair. Returns true when both copies arrive byte-identical.
bool stage_concurrently(const std::vector<std::uint8_t>& dataset) {
  using namespace fobs::posix;
  struct Leg {
    const char* site;
    std::uint16_t data_port;
    std::uint16_t control_port;
  };
  const std::vector<Leg> legs = {{"LCSE", 38120, 38121}, {"CACR", 38122, 38123}};

  TransferEngine engine({.workers = 4});
  std::vector<std::vector<std::uint8_t>> sinks(legs.size());
  std::vector<TransferHandle> handles;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    sinks[i].assign(dataset.size(), 0);
    ReceiverOptions ropt;
    ropt.data_port = legs[i].data_port;
    ropt.control_port = legs[i].control_port;
    SenderOptions sopt;
    sopt.data_port = legs[i].data_port;
    sopt.control_port = legs[i].control_port;
    handles.push_back(engine.submit_receive(ropt, std::span<std::uint8_t>(sinks[i])));
    handles.push_back(engine.submit_send(sopt, std::span<const std::uint8_t>(dataset)));
  }
  engine.wait_idle();

  bool ok = true;
  for (std::size_t i = 0; i < legs.size(); ++i) {
    const auto& rx = handles[2 * i];
    const auto& tx = handles[2 * i + 1];
    const bool verified = tx.result().completed() &&
                          rx.result().completed() && sinks[i] == dataset;
    std::printf("   -> %s: sender %s, receiver %s, bytes %s (%.0f Mb/s)\n", legs[i].site,
                to_string(tx.status()), to_string(rx.status()),
                verified ? "verified" : "MISMATCH", tx.result().goodput_mbps);
    ok = ok && verified;
  }
  return ok;
}

}  // namespace

int main() {
  using namespace fobs;
  const std::int64_t dataset_bytes = 200ll * 1024 * 1024;

  struct Destination {
    const char* site;
    exp::PathId path;
  };
  const std::vector<Destination> destinations = {
      {"LCSE (visualization)", exp::PathId::kShortHaul},
      {"CACR (analysis)", exp::PathId::kLongHaul},
  };

  std::printf("Staging a %.0f MB dataset from ANL to %zu sites\n",
              static_cast<double>(dataset_bytes) / (1024.0 * 1024.0), destinations.size());

  double fobs_total = 0.0;
  double tcp_total = 0.0;
  for (const auto& dest : destinations) {
    const auto spec = exp::spec_for(dest.path);

    exp::FobsRunParams params;
    params.object_bytes = dataset_bytes;
    const auto fobs_result = exp::run_fobs(spec, params);
    const double fobs_s = fobs_result.receiver_elapsed.seconds();
    fobs_total += fobs_s;

    const auto tcp = exp::run_tcp_averaged(spec, dataset_bytes,
                                           baselines::tcp_with_lwe(), {4});
    const double tcp_s =
        tcp.goodput_mbps > 0
            ? static_cast<double>(dataset_bytes) * 8.0 / (tcp.goodput_mbps * 1e6)
            : 0.0;
    tcp_total += tcp_s;

    std::printf("\n-> %s over %s\n", dest.site, spec.name.c_str());
    std::printf("   FOBS:    %6.1f s  (%.1f Mb/s, %.1f%% of path, waste %.1f%%)\n", fobs_s,
                fobs_result.goodput_mbps,
                100.0 * fobs_result.fraction_of(spec.max_bandwidth),
                100.0 * fobs_result.waste);
    std::printf("   TCP+LWE: %6.1f s  (%.1f Mb/s, %.1f%% of path)\n", tcp_s, tcp.goodput_mbps,
                100.0 * tcp.fraction);
  }

  std::printf("\nCampaign total (sequential staging): FOBS %.1f s vs TCP %.1f s (%.2fx)\n",
              fobs_total, tcp_total, tcp_total > 0 ? tcp_total / fobs_total : 0.0);

  // Real sockets: stage one (smaller) dataset to both sites at once.
  // The engine runs all four endpoints concurrently; the campaign takes
  // one transfer time instead of the sum.
  std::printf("\nConcurrent staging over real loopback sockets (engine sessions):\n");
  const auto dataset = core::make_pattern(6 * 1024 * 1024, 0x57A6E);
  return stage_concurrently(dataset) ? 0 : 1;
}

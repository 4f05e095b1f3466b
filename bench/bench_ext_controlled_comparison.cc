// Extension: controlled protocol comparison under scripted network
// weather (the paper's §7 closing direction, realized).
//
// Each scenario replays the *same* cross-traffic and loss trace for
// every protocol, removing the run-to-run network variance the authors
// complained about. One 40 MB transfer per cell.
#include <cstdio>
#include <vector>

#include "baselines/rudp.h"
#include "baselines/sabul.h"
#include "baselines/tcp_bulk.h"
#include "bench_util.h"
#include "exp/runner.h"
#include "exp/scenario.h"

namespace {

using namespace fobs;

double pct_of_max(double goodput_mbps, const exp::TestbedSpec& spec) {
  return goodput_mbps * 1e6 / spec.max_bandwidth.bps();
}

}  // namespace

int main() {
  const std::uint64_t seed = 42;
  const std::int64_t bytes = exp::kPaperObjectBytes;

  util::TextTable table({"scenario", "FOBS", "RUDP", "SABUL", "PSockets-16", "TCP+LWE"});
  std::printf("Controlled comparison: identical scripted load/loss per scenario, 40 MB\n");

  for (const auto& scenario : exp::all_scenarios()) {
    std::vector<std::string> row{scenario.name};

    {
      exp::ScenarioRuntime runtime(scenario, seed);
      core::SimTransferConfig config;
      config.spec.object_bytes = bytes;
      const auto r = core::run_sim_transfer(runtime.testbed().network(),
                                            runtime.testbed().src(), runtime.testbed().dst(),
                                            config);
      row.push_back(r.completed
                        ? util::TextTable::pct(pct_of_max(r.goodput_mbps, scenario.base))
                        : "stall");
    }
    {
      exp::ScenarioRuntime runtime(scenario, seed);
      baselines::RudpConfig config;
      config.spec = {bytes, exp::kPaperPacketBytes};
      const auto r = baselines::run_rudp_transfer(runtime.testbed().network(),
                                                  runtime.testbed().src(),
                                                  runtime.testbed().dst(), config);
      row.push_back(r.completed
                        ? util::TextTable::pct(pct_of_max(r.goodput_mbps, scenario.base))
                        : "stall");
    }
    {
      exp::ScenarioRuntime runtime(scenario, seed);
      baselines::SabulConfig config;
      config.spec = {bytes, exp::kPaperPacketBytes};
      config.initial_rate = scenario.base.max_bandwidth * 0.95;
      const auto r = baselines::run_sabul_transfer(runtime.testbed().network(),
                                                   runtime.testbed().src(),
                                                   runtime.testbed().dst(), config);
      row.push_back(r.completed
                        ? util::TextTable::pct(pct_of_max(r.goodput_mbps, scenario.base))
                        : "stall");
    }
    {
      exp::ScenarioRuntime runtime(scenario, seed);
      auto& bed = runtime.testbed();
      const auto r = baselines::run_tcp_transfers(
          bed.network(), baselines::psockets_transfers(bed.src(), bed.dst(), bytes, 16),
          baselines::psockets_stream_config());
      row.push_back(r.completed
                        ? util::TextTable::pct(pct_of_max(r.goodput_mbps, scenario.base))
                        : "stall");
    }
    {
      exp::ScenarioRuntime runtime(scenario, seed);
      auto& bed = runtime.testbed();
      const auto r = baselines::run_tcp_transfers(
          bed.network(), {{bed.src(), bed.dst(), bytes}}, baselines::tcp_with_lwe());
      row.push_back(r.completed
                        ? util::TextTable::pct(pct_of_max(r.goodput_mbps, scenario.base))
                        : "stall");
    }

    table.add_row(std::move(row));
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");
  benchutil::emit(table, "Extension: controlled comparison under scripted network weather");
  return 0;
}

// Extension: controlled protocol comparison under scripted network
// weather (the paper's §7 closing direction, realized).
//
// Each scenario replays the *same* cross-traffic and loss trace for
// every protocol, removing the run-to-run network variance the authors
// complained about. One 40 MB transfer per cell.
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "exp/scenario.h"

int main() {
  using namespace fobs;
  const std::uint64_t seed = 42;
  // simctl's defaults: PSockets runs 16 streams, TCP the Large Window
  // Extensions.
  const exp::Protocol protocols[] = {exp::Protocol::kFobs, exp::Protocol::kRudp,
                                     exp::Protocol::kSabul, exp::Protocol::kPsockets,
                                     exp::Protocol::kTcp};

  util::TextTable table({"scenario", "FOBS", "RUDP", "SABUL", "PSockets-16", "TCP+LWE"});
  std::printf("Controlled comparison: identical scripted load/loss per scenario, 40 MB\n");

  for (const auto& scenario : exp::all_scenarios()) {
    std::vector<std::string> row{scenario.name};
    for (const exp::Protocol protocol : protocols) {
      exp::ScenarioRuntime runtime(scenario, seed);
      const auto r = exp::run_protocol(runtime.testbed(), protocol);
      row.push_back(r.completed ? util::TextTable::pct(r.fraction) : "stall");
    }
    table.add_row(std::move(row));
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");
  benchutil::emit(table, "Extension: controlled comparison under scripted network weather");
  return 0;
}

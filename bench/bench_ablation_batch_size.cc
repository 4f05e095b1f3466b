// Ablation (paper §3.1.1): the number of packets per batch-send
// operation. The paper found that checking for an acknowledgement very
// frequently — two packets per batch — performed best, and used 2 for
// all experiments. The adaptive variant (batch derived from ack deltas,
// the paper's phase-2 sketch) is included as the last row.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"

int main() {
  using namespace fobs;
  const auto seeds = exp::default_seeds(benchutil::seed_count_from_env());
  const std::vector<int> batch_sizes = {1, 2, 4, 8, 16, 32, 64};

  util::TextTable table({"batch size", "short haul (% max bw)", "long haul (% max bw)",
                         "short waste", "long waste"});
  std::printf("Batch-size ablation: 40 MB object, ack frequency 64, %zu seed(s)/point\n",
              seeds.size());
  std::printf("Paper: 2 packets per batch-send performed best.\n");

  const auto short_spec = exp::spec_for(exp::PathId::kShortHaul);
  const auto long_spec = exp::spec_for(exp::PathId::kLongHaul);

  auto run_row = [&](const exp::FobsRunParams& params, const std::string& label) {
    const auto average = [&](const exp::TestbedSpec& spec) {
      return exp::average_over_seeds(
          spec, seeds, [&](std::uint64_t seed) { return exp::run_fobs(spec, params, seed); });
    };
    const auto s = average(short_spec);
    const auto l = average(long_spec);
    table.add_row({label, util::TextTable::pct(s.fraction), util::TextTable::pct(l.fraction),
                   util::TextTable::pct(s.waste), util::TextTable::pct(l.waste)});
    std::printf(".");
    std::fflush(stdout);
  };

  for (int b : batch_sizes) {
    exp::FobsRunParams params;
    params.batch_size = b;
    run_row(params, std::to_string(b));
  }
  exp::FobsRunParams adaptive;
  adaptive.batch_policy = core::BatchPolicy::kAckAdaptive;
  run_row(adaptive, "adaptive");
  std::printf("\n");

  benchutil::emit(table, "Ablation: packets per batch-send operation");
  return 0;
}

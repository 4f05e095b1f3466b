// Ablation (paper §3.1.1): which unacknowledged packet to send next.
// The paper tried several algorithms and found treating the object as a
// circular buffer best "by far": never retransmit a packet for the
// (n+1)-st time while any packet has been sent fewer than n+1 times.
//
// We compare circular against lowest-sequence-first (head-of-line
// hammering) and uniformly random selection, on a lossy long-haul path
// where the choice matters most.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"

int main() {
  using namespace fobs;
  const auto seeds = exp::default_seeds(benchutil::seed_count_from_env());

  util::TextTable table({"selection policy", "short haul (% max bw)", "long haul (% max bw)",
                         "long waste"});
  std::printf("Selection-policy ablation: 40 MB object, ack frequency 64, %zu seed(s)/point\n",
              seeds.size());
  std::printf("Paper: the circular-buffer policy was the best approach by far.\n");

  const auto short_spec = exp::spec_for(exp::PathId::kShortHaul);
  // A lossier long haul amplifies the difference between policies.
  auto lossy_spec = exp::spec_for(exp::PathId::kLongHaul);
  lossy_spec.fwd_loss = 5e-4;

  const std::vector<core::SelectionKind> kinds = {core::SelectionKind::kCircular,
                                                  core::SelectionKind::kLowestFirst,
                                                  core::SelectionKind::kRandomUnacked};
  const auto average = [&](const exp::TestbedSpec& spec, const exp::FobsRunParams& params) {
    return exp::average_over_seeds(
        spec, seeds, [&](std::uint64_t seed) { return exp::run_fobs(spec, params, seed); });
  };
  for (auto kind : kinds) {
    exp::FobsRunParams params;
    params.selection = kind;
    const auto s = average(short_spec, params);
    const auto l = average(lossy_spec, params);
    table.add_row({core::to_string(kind), util::TextTable::pct(s.fraction),
                   util::TextTable::pct(l.fraction), util::TextTable::pct(l.waste)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");
  benchutil::emit(table, "Ablation: packet selection policy");
  return 0;
}

// Extension: TCP congestion-control variants on the paper's lossy
// long-haul path.
//
// The paper's Table 1 treats "TCP" as one thing; this ablation shows
// how much the loss-recovery machinery matters on a high-delay lossy
// path — context for why user-level schemes like FOBS were attractive
// in 2002: even the best TCP of the day recovered slowly at 65 ms RTT.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"

namespace {

fobs::net::TcpConfig variant_config(bool fast_recovery, bool newreno, bool sack) {
  auto config = fobs::baselines::tcp_with_lwe();
  config.fast_recovery = fast_recovery;
  config.newreno = newreno;
  config.sack_enabled = sack;
  return config;
}

}  // namespace

int main() {
  using namespace fobs;
  const auto seeds = exp::default_seeds(benchutil::seed_count_from_env(5));

  auto spec = exp::spec_for(exp::PathId::kLongHaul);
  spec.fwd_loss = 1e-4;  // lossy enough that recovery style dominates

  struct Variant {
    const char* name;
    fobs::net::TcpConfig config;
  };
  const std::vector<Variant> variants = {
      {"Tahoe (no fast recovery)", variant_config(false, false, false)},
      {"Reno", variant_config(true, false, false)},
      {"NewReno", variant_config(true, true, false)},
      {"NewReno + SACK", variant_config(true, true, true)},
  };

  std::printf("TCP congestion-control ablation: 40 MB on a lossy (1e-4) 65 ms path, "
              "%zu seed(s)/row\n",
              seeds.size());

  util::TextTable table({"variant", "% max bw", "goodput", "retransmissions", "timeouts"});
  for (const auto& variant : variants) {
    const auto avg = exp::average_over_seeds(spec, seeds, [&](std::uint64_t seed) {
      return exp::run_tcp(spec, exp::kPaperObjectBytes, variant.config, 1, seed);
    });
    table.add_row({variant.name, util::TextTable::pct(avg.fraction),
                   util::TextTable::num(avg.goodput_mbps, 1) + " Mb/s",
                   std::to_string(avg.retransmissions / seeds.size()),
                   std::to_string(avg.timeouts / seeds.size())});
    std::printf(".");
    std::fflush(stdout);
  }
  // FOBS context row.
  const auto fobs_avg = exp::average_over_seeds(
      spec, seeds, [&](std::uint64_t seed) { return exp::run_fobs(spec, {}, seed); });
  table.add_row({"(context) FOBS", util::TextTable::pct(fobs_avg.fraction),
                 util::TextTable::num(fobs_avg.goodput_mbps, 1) + " Mb/s", "-", "-"});
  std::printf("\n");
  benchutil::emit(table, "Extension: TCP loss-recovery variants (lossy long haul)");
  return 0;
}

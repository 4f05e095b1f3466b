// Extension: the paper's headline results re-run on the *full* routed
// Abilene backbone (11 PoPs, OC-48 mesh, shortest-path routing,
// background traffic) instead of the calibrated dumbbells — validating
// the abstraction every other benchmark uses.
#include <cstdio>

#include "baselines/tcp_bulk.h"
#include "bench_util.h"
#include "exp/abilene.h"
#include "exp/runner.h"
#include "fobs/sim_transfer.h"

namespace {

using namespace fobs;

struct PathCase {
  const char* label;
  exp::Site src;
  exp::Site dst;
  exp::PathId dumbbell;
  double max_mbps;  ///< bottleneck for the % metric
};

}  // namespace

int main() {
  const std::int64_t bytes = exp::kPaperObjectBytes;
  const PathCase cases[] = {
      {"ANL->LCSE (short haul)", exp::Site::kAnl, exp::Site::kLcse,
       exp::PathId::kShortHaul, 100.0},
      {"ANL->CACR (long haul)", exp::Site::kAnl, exp::Site::kCacr, exp::PathId::kLongHaul,
       100.0},
  };

  std::printf("Abilene-backbone validation: 40 MB transfers, light background traffic\n");
  util::TextTable table({"path", "protocol", "routed Abilene", "dumbbell", "paper"});

  for (const auto& path_case : cases) {
    // --- FOBS ---
    {
      exp::AbileneNetwork net(42);
      net.add_background_traffic(16, util::DataRate::megabits_per_second(150),
                                 util::Duration::milliseconds(40),
                                 util::Duration::milliseconds(160));
      net.set_backbone_loss(5e-6);
      core::SimTransferConfig config;
      config.spec.object_bytes = bytes;
      const auto routed =
          core::run_sim_transfer(net.network(), net.site_host(path_case.src),
                                 net.site_host(path_case.dst), config);
      exp::FobsRunParams params;
      const auto dumbbell = exp::run_fobs(exp::spec_for(path_case.dumbbell), params);
      table.add_row({path_case.label, "FOBS",
                     util::TextTable::pct(routed.goodput_mbps / path_case.max_mbps),
                     util::TextTable::pct(dumbbell.goodput_mbps / path_case.max_mbps),
                     "~90%"});
    }
    // --- TCP with LWE ---
    {
      exp::AbileneNetwork net(42);
      net.add_background_traffic(16, util::DataRate::megabits_per_second(150),
                                 util::Duration::milliseconds(40),
                                 util::Duration::milliseconds(160));
      net.set_backbone_loss(path_case.dumbbell == exp::PathId::kLongHaul ? 1e-5 : 5e-6);
      const auto routed = baselines::run_tcp_transfers(
          net.network(),
          {{net.site_host(path_case.src), net.site_host(path_case.dst), bytes}},
          baselines::tcp_with_lwe());
      const auto dumbbell = exp::run_tcp_averaged(exp::spec_for(path_case.dumbbell), bytes,
                                                  baselines::tcp_with_lwe(),
                                                  exp::default_seeds(3));
      table.add_row({path_case.label, "TCP+LWE",
                     util::TextTable::pct(routed.goodput_mbps / path_case.max_mbps),
                     util::TextTable::pct(dumbbell.goodput_mbps / path_case.max_mbps),
                     path_case.dumbbell == exp::PathId::kLongHaul ? "51%" : "86%"});
    }
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");
  benchutil::emit(table, "Extension: routed Abilene backbone vs. dumbbell reduction");
  return 0;
}

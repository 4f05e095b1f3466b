// Figures 1 and 2 from one sweep of the acknowledgement frequency, on
// the short-haul (ANL->LCSE, ~26 ms RTT) and long-haul (ANL->CACR,
// ~65 ms RTT) paths. Each point is one set of runs that yields both
// figures' metrics.
//
// Figure 1, FOBS percentage of maximum available bandwidth. Paper
// result: ~90% on both connections at well-chosen ack frequencies,
// degraded at very small ones (the receiver stalls building ACKs and
// drops packets) and slightly at very large ones (the sender's view
// goes stale).
//
// Figure 2, wasted network resources: (packets sent - packets needed) /
// packets needed. Paper result: roughly 3% of the total data
// transferred at reasonable acknowledgement frequencies; waste rises
// when the receiver stalls (tiny frequencies, loss-driven retransmits)
// and when the sender's view goes stale (huge frequencies, blind
// retransmits).
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/report.h"
#include "exp/runner.h"

int main() {
  using namespace fobs;
  const auto seeds = exp::default_seeds(benchutil::seed_count_from_env());
  const std::vector<std::int64_t> frequencies = {1,  2,   4,   8,    16,   32,  64,
                                                 128, 256, 512, 1024, 2048, 4096};

  util::TextTable bandwidth({"ack frequency", "short haul (% max bw)", "long haul (% max bw)"});
  util::TextTable waste({"ack frequency", "short haul waste", "long haul waste"});
  std::printf("Figures 1 and 2 reproduction: 40 MB object, 1024 B packets, %zu seed(s)/point\n",
              seeds.size());
  std::printf("Paper: ~90%% of max bandwidth on both paths at good ack frequencies (Figure 1)\n");
  std::printf("and ~3%% waste at reasonable acknowledgement frequencies (Figure 2).\n");

  const auto short_spec = exp::spec_for(exp::PathId::kShortHaul);
  const auto long_spec = exp::spec_for(exp::PathId::kLongHaul);

  exp::PlotSpec bandwidth_plot;
  bandwidth_plot.name = "fig1_ack_frequency";
  bandwidth_plot.title = "Figure 1: FOBS % of max bandwidth vs. ack frequency";
  bandwidth_plot.xlabel = "acknowledgement frequency (packets)";
  bandwidth_plot.ylabel = "% of maximum available bandwidth";
  bandwidth_plot.log_x = true;
  bandwidth_plot.series = {{"short haul", {}}, {"long haul", {}}};
  exp::PlotSpec waste_plot = bandwidth_plot;
  waste_plot.name = "fig2_wasted_resources";
  waste_plot.title = "Figure 2: wasted network resources vs. ack frequency";
  waste_plot.ylabel = "wasted resources (%)";

  for (const std::int64_t f : frequencies) {
    exp::FobsRunParams params;
    params.ack_frequency = f;
    const auto average = [&](const exp::TestbedSpec& spec) {
      return exp::average_over_seeds(
          spec, seeds, [&](std::uint64_t seed) { return exp::run_fobs(spec, params, seed); });
    };
    const auto short_avg = average(short_spec);
    const auto long_avg = average(long_spec);
    bandwidth.add_row({std::to_string(f), util::TextTable::pct(short_avg.fraction),
                       util::TextTable::pct(long_avg.fraction)});
    waste.add_row({std::to_string(f), util::TextTable::pct(short_avg.waste),
                   util::TextTable::pct(long_avg.waste)});
    for (auto* plot : {&bandwidth_plot, &waste_plot}) plot->xs.push_back(static_cast<double>(f));
    bandwidth_plot.series[0].ys.push_back(100 * short_avg.fraction);
    bandwidth_plot.series[1].ys.push_back(100 * long_avg.fraction);
    waste_plot.series[0].ys.push_back(100 * short_avg.waste);
    waste_plot.series[1].ys.push_back(100 * long_avg.waste);
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");
  benchutil::emit(bandwidth, "Figure 1: FOBS bandwidth vs. acknowledgement frequency");
  benchutil::emit(waste, "Figure 2: wasted network resources vs. acknowledgement frequency");
  if (const auto dir = benchutil::trace_dir_from_env(); !dir.empty()) {
    exp::FobsRunParams params;
    params.ack_frequency = 64;
    benchutil::dump_fobs_trace(dir, "fig12_short_haul", short_spec, params);
    benchutil::dump_fobs_trace(dir, "fig12_long_haul", long_spec, params);
  }
  if (const auto dir = exp::plot_dir_from_env(); !dir.empty()) {
    for (const auto* plot : {&bandwidth_plot, &waste_plot}) {
      std::printf("%s gnuplot files to %s/\n",
                  exp::write_plot(dir, *plot) ? "wrote" : "FAILED writing", dir.c_str());
    }
  }
  return 0;
}

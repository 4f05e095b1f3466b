// Figure 3: percentage of maximum available bandwidth as a function of
// the UDP packet size, between GigE endpoints with an OC-12 (622 Mb/s)
// connection to the backbone (NCSA -> LCSE).
//
// Paper result: "the size of the data packet makes a tremendous
// difference in performance", peaking at approximately 52% of the
// maximum available bandwidth (~40 MB/s). The mechanism is the
// endpoints' per-datagram receive cost: small packets drown the host in
// syscalls, large packets amortize them until the per-byte copy cost
// saturates.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/report.h"
#include "exp/runner.h"

int main() {
  using namespace fobs;
  const auto seeds = exp::default_seeds(benchutil::seed_count_from_env());
  const std::vector<std::int64_t> packet_sizes = {1024, 2048, 4096, 8192, 16384, 32768};
  // Paper's Figure 3 bar chart, read off the plot (approximate).
  const std::vector<double> paper_values = {0.10, 0.19, 0.30, 0.40, 0.49, 0.52};

  util::TextTable table({"packet size", "paper (% max bw)", "measured (% max bw)"});
  std::printf("Figure 3 reproduction: 40 MB object on the GigE/OC-12 path, %zu seed(s)/point\n",
              seeds.size());

  exp::PlotSpec plot;
  plot.name = "fig3_packet_size";
  plot.title = "Figure 3: FOBS % of max bandwidth vs. UDP packet size";
  plot.xlabel = "packet size (bytes)";
  plot.ylabel = "% of maximum available bandwidth";
  plot.log_x = true;
  plot.series = {{"paper", {}}, {"measured", {}}};

  const auto spec = exp::spec_for(exp::PathId::kGigabitOc12);
  for (std::size_t i = 0; i < packet_sizes.size(); ++i) {
    exp::FobsRunParams params;
    params.packet_bytes = packet_sizes[i];
    params.ack_frequency = 64;
    params.receiver_socket_buffer_bytes = 256 * 1024;
    const auto avg = exp::average_over_seeds(
        spec, seeds, [&](std::uint64_t seed) { return exp::run_fobs(spec, params, seed); });
    table.add_row({std::to_string(packet_sizes[i] / 1024) + "K",
                   util::TextTable::pct(paper_values[i]),
                   util::TextTable::pct(avg.fraction)});
    plot.xs.push_back(static_cast<double>(packet_sizes[i]));
    plot.series[0].ys.push_back(100 * paper_values[i]);
    plot.series[1].ys.push_back(100 * avg.fraction);
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");
  benchutil::emit(table, "Figure 3: FOBS bandwidth vs. UDP packet size (GigE/OC-12)");
  if (const auto dir = benchutil::trace_dir_from_env(); !dir.empty()) {
    exp::FobsRunParams params;
    params.packet_bytes = 8192;
    params.ack_frequency = 64;
    params.receiver_socket_buffer_bytes = 256 * 1024;
    benchutil::dump_fobs_trace(dir, "fig3_gige_oc12", spec, params);
  }
  if (const auto dir = exp::plot_dir_from_env(); !dir.empty()) {
    std::printf("%s gnuplot files to %s/\n",
                exp::write_plot(dir, plot) ? "wrote" : "FAILED writing", dir.c_str());
  }
  return 0;
}

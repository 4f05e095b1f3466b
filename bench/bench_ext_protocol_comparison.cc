// Extension: all four user-level protocols from the paper's related
// work — FOBS, RUDP (Reliable Blast UDP), SABUL, PSockets — plus tuned
// TCP, on the short-haul, long-haul, and contended paths.
//
// Expected shapes (paper §2): RUDP matches FOBS on clean QoS-like paths
// but pays a full feedback round per loss pass; SABUL backs off on loss
// it (mis)attributes to congestion; TCP collapses on lossy long-haul
// paths; FOBS stays near the path ceiling everywhere.
#include <cstdio>
#include <string>

#include "bench_util.h"
#include "exp/runner.h"

int main() {
  using namespace fobs;
  const std::uint64_t seed = 42;

  util::TextTable table(
      {"path", "protocol", "% max bw", "elapsed", "waste/extra"});
  std::printf("Protocol comparison: 40 MB object per cell (single seed)\n");

  for (auto path :
       {exp::PathId::kShortHaul, exp::PathId::kLongHaul, exp::PathId::kGigabitContended}) {
    const auto spec = exp::spec_for(path);
    const std::string name = to_string(path);

    exp::FobsRunParams fobs_params;
    const auto fobs = exp::run_fobs(spec, fobs_params, seed);
    table.add_row({name, "FOBS", util::TextTable::pct(fobs.fraction_of(spec.max_bandwidth)),
                   util::TextTable::num(fobs.receiver_elapsed.seconds(), 2) + " s",
                   "waste " + util::TextTable::pct(fobs.waste)});

    baselines::RudpConfig rudp_config;
    rudp_config.spec = {exp::kPaperObjectBytes, exp::kPaperPacketBytes};
    const auto rudp = exp::run_rudp(spec, rudp_config, seed);
    table.add_row({name, "RUDP", util::TextTable::pct(rudp.fraction_of(spec.max_bandwidth)),
                   util::TextTable::num(rudp.elapsed.seconds(), 2) + " s",
                   std::to_string(rudp.passes) + " passes, waste " +
                       util::TextTable::pct(rudp.waste)});

    baselines::SabulConfig sabul_config;
    sabul_config.spec = {exp::kPaperObjectBytes, exp::kPaperPacketBytes};
    sabul_config.initial_rate = spec.max_bandwidth * 0.95;
    const auto sabul = exp::run_sabul(spec, sabul_config, seed);
    table.add_row({name, "SABUL", util::TextTable::pct(sabul.fraction_of(spec.max_bandwidth)),
                   util::TextTable::num(sabul.elapsed.seconds(), 2) + " s",
                   "final rate " + util::TextTable::num(sabul.final_rate_mbps, 0) + " Mb/s"});

    const auto tcp = exp::run_tcp_averaged(spec, exp::kPaperObjectBytes,
                                           baselines::tcp_with_lwe(), {seed});
    table.add_row({name, "TCP+LWE", util::TextTable::pct(tcp.fraction),
                   util::TextTable::num(tcp.goodput_mbps > 0
                                            ? exp::kPaperObjectBytes * 8.0 /
                                                  (tcp.goodput_mbps * 1e6)
                                            : 0.0,
                                        2) +
                       " s",
                   std::to_string(tcp.retransmissions) + " rtx"});

    const auto psockets = exp::run_tcp(spec, exp::kPaperObjectBytes,
                                        baselines::psockets_stream_config(), 16, seed);
    table.add_row({name, "PSockets-16",
                   util::TextTable::pct(psockets.fraction_of(spec.max_bandwidth)),
                   util::TextTable::num(psockets.elapsed.seconds(), 2) + " s",
                   std::to_string(psockets.retransmissions) + " rtx"});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");
  benchutil::emit(table, "Extension: user-level protocol comparison");
  return 0;
}

// Protocol shootout: run FOBS, RUDP, SABUL, PSockets and TCP over any
// of the paper's testbed paths and compare.
//
//   ./protocol_shootout [short|long|gigabit|contended] [object MB]
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <string>

#include "common/table.h"
#include "exp/runner.h"

int main(int argc, char** argv) {
  using namespace fobs;

  exp::PathId path = exp::PathId::kLongHaul;
  if (argc > 1) {
    const std::string arg = argv[1];
    if (arg == "short") path = exp::PathId::kShortHaul;
    else if (arg == "long") path = exp::PathId::kLongHaul;
    else if (arg == "gigabit") path = exp::PathId::kGigabitOc12;
    else if (arg == "contended") path = exp::PathId::kGigabitContended;
    else {
      std::printf("usage: %s [short|long|gigabit|contended] [object MB]\n", argv[0]);
      return 2;
    }
  }
  const std::int64_t mb = argc > 2 ? std::atoll(argv[2]) : 40;
  const std::int64_t bytes = mb * 1024 * 1024;
  const auto spec = exp::spec_for(path);

  std::printf("Shooting out a %lld MB transfer over %s (max %.0f Mb/s, RTT %.0f ms)\n",
              static_cast<long long>(mb), spec.name.c_str(), spec.max_bandwidth.mbps(),
              spec.rtt().seconds() * 1e3);

  util::TextTable table({"protocol", "% max bw", "goodput", "elapsed", "notes"});

  exp::FobsRunParams fobs_params;
  fobs_params.object_bytes = bytes;
  const auto fobs = exp::run_fobs(spec, fobs_params);
  table.add_row({"FOBS", util::TextTable::pct(fobs.fraction_of(spec.max_bandwidth)),
                 util::TextTable::num(fobs.goodput_mbps, 1) + " Mb/s",
                 util::TextTable::num(fobs.receiver_elapsed.seconds(), 2) + " s",
                 "waste " + util::TextTable::pct(fobs.waste)});

  baselines::RudpConfig rudp_config;
  rudp_config.spec = {bytes, exp::kPaperPacketBytes};
  const auto rudp = exp::run_rudp(spec, rudp_config);
  table.add_row({"RUDP", util::TextTable::pct(rudp.fraction_of(spec.max_bandwidth)),
                 util::TextTable::num(rudp.goodput_mbps, 1) + " Mb/s",
                 util::TextTable::num(rudp.elapsed.seconds(), 2) + " s",
                 std::to_string(rudp.passes) + " blast passes"});

  baselines::SabulConfig sabul_config;
  sabul_config.spec = {bytes, exp::kPaperPacketBytes};
  sabul_config.initial_rate = spec.max_bandwidth * 0.95;
  const auto sabul = exp::run_sabul(spec, sabul_config);
  table.add_row({"SABUL", util::TextTable::pct(sabul.fraction_of(spec.max_bandwidth)),
                 util::TextTable::num(sabul.goodput_mbps, 1) + " Mb/s",
                 util::TextTable::num(sabul.elapsed.seconds(), 2) + " s",
                 std::to_string(sabul.loss_reports) + " loss reports"});

  for (int streams : {1, 8, 16}) {
    const auto ps = exp::run_tcp(spec, bytes, baselines::psockets_stream_config(), streams);
    table.add_row({"PSockets-" + std::to_string(streams),
                   util::TextTable::pct(ps.fraction_of(spec.max_bandwidth)),
                   util::TextTable::num(ps.goodput_mbps, 1) + " Mb/s",
                   util::TextTable::num(ps.elapsed.seconds(), 2) + " s",
                   std::to_string(ps.retransmissions) + " rtx"});
  }

  const auto tcp =
      exp::run_tcp_averaged(spec, bytes, baselines::tcp_with_lwe(), exp::default_seeds(3));
  table.add_row({"TCP+LWE", util::TextTable::pct(tcp.fraction),
                 util::TextTable::num(tcp.goodput_mbps, 1) + " Mb/s", "-",
                 "mean of 3 runs"});
  const auto tcp_nolwe =
      exp::run_tcp_averaged(spec, bytes, baselines::tcp_without_lwe(), exp::default_seeds(3));
  table.add_row({"TCP (64K wnd)", util::TextTable::pct(tcp_nolwe.fraction),
                 util::TextTable::num(tcp_nolwe.goodput_mbps, 1) + " Mb/s", "-",
                 "mean of 3 runs"});

  table.print(std::cout);
  return 0;
}

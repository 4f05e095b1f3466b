// Table 1: percentage of the maximum available bandwidth obtained by
// TCP with and without the Large Window Extensions (window scaling).
//
// Paper:
//   Short haul with LWE   86%
//   Long haul with LWE    51%
//   Long haul without LWE 11%
//
// The without-LWE row is pure protocol arithmetic: a 64 KiB window over
// a 65 ms round trip moves at most ~8 Mb/s. The with-LWE long-haul row
// is contention: light random loss trips TCP's congestion control, and
// recovery at 65 ms RTT is slow. FOBS rows are included for context
// (the paper quotes ~90% / 1.8x over tuned TCP in the text).
#include <cstdio>

#include "bench_util.h"
#include "exp/runner.h"

int main() {
  using namespace fobs;
  const auto seeds = exp::default_seeds(benchutil::seed_count_from_env(5));

  std::printf("Table 1 reproduction: 40 MB single-stream TCP transfers, %zu seed(s)/row\n",
              seeds.size());

  const auto short_spec = exp::spec_for(exp::PathId::kShortHaul);
  const auto long_spec = exp::spec_for(exp::PathId::kLongHaul);

  const auto tcp_average = [&](const exp::TestbedSpec& spec, const net::TcpConfig& config) {
    return exp::average_over_seeds(spec, seeds, [&](std::uint64_t seed) {
      return exp::run_tcp(spec, exp::kPaperObjectBytes, config, 1, seed);
    });
  };
  const auto fobs_average = [&](const exp::TestbedSpec& spec) {
    return exp::average_over_seeds(
        spec, seeds, [&](std::uint64_t seed) { return exp::run_fobs(spec, {}, seed); });
  };
  const auto short_lwe = tcp_average(short_spec, baselines::tcp_with_lwe());
  const auto long_lwe = tcp_average(long_spec, baselines::tcp_with_lwe());
  const auto long_nolwe = tcp_average(long_spec, baselines::tcp_without_lwe());
  const auto fobs_short = fobs_average(short_spec);
  const auto fobs_long = fobs_average(long_spec);

  util::TextTable table({"network connection", "paper", "measured"});
  table.add_row({"Short haul with LWE", "86%", util::TextTable::pct(short_lwe.fraction)});
  table.add_row({"Long haul with LWE", "51%", util::TextTable::pct(long_lwe.fraction)});
  table.add_row({"Long haul without LWE", "11%", util::TextTable::pct(long_nolwe.fraction)});
  table.add_row({"(context) FOBS short haul", "~90%", util::TextTable::pct(fobs_short.fraction)});
  table.add_row({"(context) FOBS long haul", "~90%", util::TextTable::pct(fobs_long.fraction)});
  benchutil::emit(table, "Table 1: TCP with and without the Large Window Extensions");

  if (long_lwe.fraction > 0) {
    std::printf("\nFOBS / tuned-TCP long-haul ratio: %.2fx (paper: ~1.8x)\n",
                fobs_long.fraction / long_lwe.fraction);
  }
  return 0;
}

// Table 2: FOBS vs. PSockets on the contended NCSA -> CACR GigE/OC-12
// path.
//
// Paper:
//   PSockets: 56% of max bandwidth, optimal number of sockets = 20
//   FOBS:     76% of max bandwidth, 2% wasted network resources
//
// PSockets' socket count is tuned experimentally (as in the original
// system); we reproduce that search over a candidate set and report the
// winner.
#include <cstdio>
#include <vector>

#include "baselines/tcp_bulk.h"
#include "bench_util.h"
#include "exp/runner.h"

int main() {
  using namespace fobs;
  const auto seeds = exp::default_seeds(benchutil::seed_count_from_env());
  const auto spec = exp::spec_for(exp::PathId::kGigabitContended);
  const std::vector<int> candidates = {1, 2, 4, 8, 12, 16, 20, 24, 28, 32};

  std::printf("Table 2 reproduction: 40 MB transfers on the contended GigE/OC-12 path\n");
  std::printf("PSockets socket-count search over {1,2,4,8,12,16,20,24,28,32}:\n");

  util::TextTable search({"sockets", "measured (% max bw)"});
  double best_fraction = -1.0;
  int best_n = 0;
  for (int n : candidates) {
    // Average the search point over the seeds, like repeated tuning runs.
    const auto avg = exp::average_over_seeds(spec, seeds, [&](std::uint64_t seed) {
      return exp::run_tcp(spec, exp::kPaperObjectBytes, baselines::psockets_stream_config(), n,
                          seed);
    });
    search.add_row({std::to_string(n), util::TextTable::pct(avg.fraction)});
    if (avg.completed_runs > 0 && avg.fraction > best_fraction) {
      best_fraction = avg.fraction;
      best_n = n;
    }
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");
  benchutil::emit(search, "PSockets stream-count search");

  const auto fobs = exp::average_over_seeds(
      spec, seeds, [&](std::uint64_t seed) { return exp::run_fobs(spec, {}, seed); });

  util::TextTable table({"metric", "PSockets paper", "PSockets measured", "FOBS paper",
                         "FOBS measured"});
  table.add_row({"% of max bandwidth", "56%", util::TextTable::pct(best_fraction), "76%",
                 util::TextTable::pct(fobs.fraction)});
  table.add_row({"wasted network resources", "-", "-", "2%", util::TextTable::pct(fobs.waste)});
  table.add_row({"optimal parallel sockets", "20", std::to_string(best_n), "-", "-"});
  benchutil::emit(table, "Table 2: FOBS vs. PSockets (contended GigE/OC-12 path)");

  // Machine-readable companion to BENCH_stripes.json: the PSockets
  // baseline the striped-FOBS numbers are read against.
  if (FILE* f = std::fopen("BENCH_psockets.json", "w")) {
    std::fprintf(f,
                 "{\n  \"benchmark\": \"table2_psockets\",\n"
                 "  \"path\": \"contended GigE/OC-12\",\n"
                 "  \"object_bytes\": %lld,\n",
                 static_cast<long long>(exp::kPaperObjectBytes));
    std::fprintf(f, "  \"psockets\": {\"paper_fraction\": 0.56, \"measured_fraction\": %.4f, "
                    "\"paper_optimal_sockets\": 20, \"measured_optimal_sockets\": %d},\n",
                 best_fraction, best_n);
    std::fprintf(f, "  \"fobs\": {\"paper_fraction\": 0.76, \"measured_fraction\": %.4f, "
                    "\"paper_waste\": 0.02, \"measured_waste\": %.4f}\n}\n",
                 fobs.fraction, fobs.waste);
    std::fclose(f);
    std::printf("wrote BENCH_psockets.json\n");
  }
  return 0;
}

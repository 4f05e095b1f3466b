// Extension (paper §7): congestion-adaptive FOBS.
//
// The paper notes FOBS "does not yet provide congestion control" and
// sketches two remedies for congested networks:
//  (1) switch to a high-performance TCP when sustained congestion is
//      detected, switching back once it dissipates, and
//  (2) decrease FOBS's greediness (here: a pacing gap) instead.
// Both are implemented; this bench exercises them in two scenarios:
//
//  A. *Persistent* overload — cross traffic outstrips the spare
//     capacity for the whole transfer. Backing off trades a little
//     throughput for far less waste and friendlier sharing; TCP
//     fallback effectively becomes a TCP transfer.
//  B. *Transient* episode — the path is congested for the first few
//     seconds, then clears. The adaptive variants ride out the episode
//     and return to full greed; plain FOBS burns bandwidth throughout.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "sim/cross_traffic.h"

namespace {

using namespace fobs;

struct Variant {
  const char* name;
  bool adaptive;
  bool tcp_fallback;
};

constexpr Variant kVariants[] = {
    {"FOBS greedy (paper)", false, false},
    {"FOBS + pacing backoff", true, false},
    {"FOBS + TCP fallback", true, true},
};

struct CellResult {
  bool completed = false;
  double fraction = 0.0;
  double waste = 0.0;
  double cross_delivery = 0.0;
  int fallback_episodes = 0;
  std::int64_t via_tcp = 0;
};

/// Runs one transfer with optional *extra* cross sources that stop at
/// `episode_end` (zero = never started).
CellResult run_cell(const exp::TestbedSpec& spec, const Variant& variant,
                    std::int64_t object_bytes, int extra_sources,
                    util::Duration episode_end, std::uint64_t seed) {
  exp::Testbed bed(spec, seed);
  auto& sim = bed.sim();
  auto& net = bed.network();

  std::vector<std::unique_ptr<sim::OnOffSource>> episode_sources;
  for (int i = 0; i < extra_sources; ++i) {
    auto source = std::make_unique<sim::OnOffSource>(
        sim, bed.backbone(), net.next_node_id(), bed.cross_sink().id(), 1000,
        util::DataRate::megabits_per_second(150), util::Duration::milliseconds(40),
        util::Duration::milliseconds(120), util::Rng(seed * 977 + i));
    source->start();
    episode_sources.push_back(std::move(source));
  }
  if (episode_end > util::Duration::zero()) {
    sim.schedule_in(episode_end, [&episode_sources] {
      for (auto& source : episode_sources) source->stop();
    });
  }

  core::SimTransferConfig config;
  config.spec.object_bytes = object_bytes;
  config.adaptive.enabled = variant.adaptive;
  config.adaptive.tcp_fallback = variant.tcp_fallback;
  config.carry_data = false;
  const auto result = core::run_sim_transfer(net, bed.src(), bed.dst(), config);

  CellResult cell;
  cell.completed = result.completed;
  if (result.receiver_complete) {
    const double seconds = result.receiver_elapsed.seconds();
    cell.fraction = static_cast<double>(object_bytes) * 8.0 / seconds /
                    spec.max_bandwidth.bps();
  }
  cell.waste = result.waste;
  cell.fallback_episodes = result.fallback_episodes;
  cell.via_tcp = result.packets_via_tcp;
  std::uint64_t offered = 0;
  for (const auto& src : bed.cross_sources()) offered += src->stats().packets_sent;
  for (const auto& src : episode_sources) offered += src->stats().packets_sent;
  if (offered > 0) {
    cell.cross_delivery =
        static_cast<double>(bed.cross_sink().packets_received()) / static_cast<double>(offered);
  }
  return cell;
}

void run_scenario(const char* title, const exp::TestbedSpec& spec, std::int64_t object_bytes,
                  int extra_sources, util::Duration episode_end,
                  const std::vector<std::uint64_t>& seeds) {
  util::TextTable table({"variant", "% max bw", "waste", "cross delivery",
                         "fallback episodes", "pkts via TCP"});
  for (const auto& variant : kVariants) {
    CellResult avg;
    int runs = 0;
    for (std::uint64_t seed : seeds) {
      const auto cell =
          run_cell(spec, variant, object_bytes, extra_sources, episode_end, seed);
      if (!cell.completed) continue;
      avg.fraction += cell.fraction;
      avg.waste += cell.waste;
      avg.cross_delivery += cell.cross_delivery;
      avg.fallback_episodes += cell.fallback_episodes;
      avg.via_tcp += cell.via_tcp;
      ++runs;
      std::printf(".");
      std::fflush(stdout);
    }
    if (runs == 0) {
      table.add_row({variant.name, "did not complete", "-", "-", "-", "-"});
      continue;
    }
    table.add_row({variant.name, util::TextTable::pct(avg.fraction / runs),
                   util::TextTable::pct(avg.waste / runs),
                   util::TextTable::pct(avg.cross_delivery / runs),
                   util::TextTable::num(static_cast<double>(avg.fallback_episodes) / runs, 1),
                   util::TextTable::num(static_cast<double>(avg.via_tcp) / runs, 0)});
  }
  std::printf("\n");
  benchutil::emit(table, title);
}

}  // namespace

int main() {
  const auto seeds = exp::default_seeds(benchutil::seed_count_from_env());
  std::printf("Adaptive FOBS (paper section 7), %zu seed(s)/row\n", seeds.size());

  // Scenario A: persistent overload for the whole transfer.
  auto overloaded = exp::spec_for(exp::PathId::kGigabitContended);
  overloaded.cross_sources = 8;
  overloaded.cross_peak = util::DataRate::megabits_per_second(150);
  run_scenario("Scenario A: persistent overload (40 MB)", overloaded,
               exp::kPaperObjectBytes, /*extra_sources=*/0, util::Duration::zero(), seeds);

  // Scenario B: a 2.5 s congestion episode at the start of a 160 MB
  // transfer on the normally-contended path.
  const auto episodic = exp::spec_for(exp::PathId::kGigabitContended);
  run_scenario("Scenario B: transient 2.5 s congestion episode (160 MB)", episodic,
               160ll * 1024 * 1024, /*extra_sources=*/8,
               util::Duration::milliseconds(2500), seeds);
  return 0;
}

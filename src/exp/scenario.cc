#include "exp/scenario.h"

namespace fobs::exp {

using fobs::sim::OnOffSource;
using fobs::util::Rng;

// ---------------------------------------------------------------------------
// Prebuilt scenarios
// ---------------------------------------------------------------------------

namespace {

TestbedSpec contended_base() {
  auto spec = spec_for(PathId::kGigabitContended);
  // Scenario phases inject all cross traffic and loss themselves.
  spec.cross_sources = 0;
  spec.fwd_loss = 0.0;
  spec.rev_loss = 0.0;
  return spec;
}

}  // namespace

Scenario scenario_clean_long_haul() {
  Scenario scenario;
  scenario.name = "clean-long-haul";
  scenario.base = spec_for(PathId::kLongHaul);
  scenario.base.fwd_loss = 0.0;
  scenario.base.rev_loss = 0.0;
  return scenario;
}

Scenario scenario_steady_contention() {
  Scenario scenario;
  scenario.name = "steady-contention";
  scenario.base = contended_base();
  scenario.traffic.push_back(TrafficPhase{.sources = 5,
                                          .peak = DataRate::megabits_per_second(100)});
  scenario.loss.push_back(LossPhase{.per_fragment_loss = 1e-5});
  return scenario;
}

Scenario scenario_congestion_episode() {
  Scenario scenario;
  scenario.name = "congestion-episode";
  scenario.base = contended_base();
  // Background load throughout...
  scenario.traffic.push_back(TrafficPhase{.sources = 3,
                                          .peak = DataRate::megabits_per_second(100)});
  // ...plus a hot 2-second episode early in the transfer.
  scenario.traffic.push_back(TrafficPhase{.start = Duration::milliseconds(500),
                                          .stop = Duration::milliseconds(2500),
                                          .sources = 8,
                                          .peak = DataRate::megabits_per_second(150)});
  return scenario;
}

Scenario scenario_flash_crowd() {
  Scenario scenario;
  scenario.name = "flash-crowd";
  scenario.base = contended_base();
  // Load ramps up in three steps, like an audience arriving.
  for (int step = 0; step < 3; ++step) {
    scenario.traffic.push_back(
        TrafficPhase{.start = Duration::seconds(step),
                     .sources = 2,
                     .peak = DataRate::megabits_per_second(120)});
  }
  return scenario;
}

Scenario scenario_lossy_wan() {
  Scenario scenario;
  scenario.name = "lossy-wan";
  scenario.base = spec_for(PathId::kLongHaul);
  scenario.base.fwd_loss = 0.0;
  // Loss comes and goes in weather fronts.
  scenario.loss.push_back(LossPhase{.start = Duration::zero(),
                                    .stop = Duration::seconds(1),
                                    .per_fragment_loss = 1e-4});
  scenario.loss.push_back(LossPhase{.start = Duration::seconds(1),
                                    .stop = Duration::seconds(2),
                                    .per_fragment_loss = 2e-3});
  scenario.loss.push_back(LossPhase{.start = Duration::seconds(2),
                                    .per_fragment_loss = 5e-5});
  return scenario;
}

std::vector<Scenario> all_scenarios() {
  return {scenario_clean_long_haul(), scenario_steady_contention(),
          scenario_congestion_episode(), scenario_flash_crowd(), scenario_lossy_wan()};
}

// ---------------------------------------------------------------------------
// Runtime
// ---------------------------------------------------------------------------

ScenarioRuntime::ScenarioRuntime(const Scenario& scenario, std::uint64_t seed)
    : testbed_(std::make_unique<Testbed>(scenario.base, seed)) {
  auto& sim = testbed_->sim();
  auto& net = testbed_->network();
  Rng rng(seed ^ 0x5CE7A710);

  // Install a loss model on the forward backbone, lossless until the
  // first phase starts, and arm the loss phases.
  if (!scenario.loss.empty()) {
    auto owned = std::make_unique<fobs::sim::BernoulliLoss>(0.0);
    auto* loss = owned.get();  // owned by the backbone link from here on
    testbed_->backbone().set_loss_model(std::move(owned), rng.fork());
    for (const auto& phase : scenario.loss) {
      const double p = phase.per_fragment_loss;
      sim.schedule_in(phase.start, [loss, p] { loss->set_probability(p); });
      if (phase.stop < Duration::max()) {
        sim.schedule_in(phase.stop, [loss] { loss->set_probability(0.0); });
      }
    }
  }

  // Arm the traffic phases.
  for (const auto& phase : scenario.traffic) {
    for (int i = 0; i < phase.sources; ++i) {
      auto source = std::make_unique<OnOffSource>(
          sim, testbed_->backbone(), net.next_node_id(), testbed_->cross_sink().id(),
          phase.packet_bytes, phase.peak, phase.mean_on, phase.mean_off, rng.fork());
      auto* raw = source.get();
      if (phase.start <= Duration::zero()) {
        raw->start();
      } else {
        sim.schedule_in(phase.start, [raw] { raw->start(); });
      }
      if (phase.stop < Duration::max()) {
        sim.schedule_in(phase.stop, [raw] { raw->stop(); });
      }
      sources_.push_back(std::move(source));
    }
  }
}

std::uint64_t ScenarioRuntime::cross_packets_offered() const {
  std::uint64_t total = 0;
  for (const auto& source : sources_) total += source->stats().packets_sent;
  return total;
}

}  // namespace fobs::exp

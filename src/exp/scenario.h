// Scripted network scenarios: identical, replayable load and loss
// traces for controlled protocol comparisons.
//
// The paper closes on exactly this need: "since network conditions are
// constantly changing it is very difficult to find windows of time when
// two or more approaches can be compared in a meaningful way. For this
// reason, we are also engaged in the development of simulation models
// that can be used to compare the various algorithms under similar
// (albeit simulated) loads and traffic mixes." A Scenario is such a
// model: a base testbed plus time-phased cross traffic and loss, driven
// deterministically from a seed, so every protocol experiences the
// *same* network weather.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/testbeds.h"
#include "sim/loss.h"

namespace fobs::exp {

/// A burst of on/off cross-traffic sources active during [start, stop).
struct TrafficPhase {
  Duration start = Duration::zero();
  Duration stop = Duration::max();
  int sources = 1;
  DataRate peak = DataRate::megabits_per_second(100);
  Duration mean_on = Duration::milliseconds(40);
  Duration mean_off = Duration::milliseconds(120);
  std::int64_t packet_bytes = 1000;
};

/// Random per-fragment loss on the forward backbone during [start, stop).
struct LossPhase {
  Duration start = Duration::zero();
  Duration stop = Duration::max();
  double per_fragment_loss = 0.0;
};

struct Scenario {
  std::string name;
  TestbedSpec base;
  std::vector<TrafficPhase> traffic;
  std::vector<LossPhase> loss;
};

/// Prebuilt scenarios for the controlled-comparison bench.
[[nodiscard]] Scenario scenario_clean_long_haul();
[[nodiscard]] Scenario scenario_steady_contention();
[[nodiscard]] Scenario scenario_congestion_episode();
[[nodiscard]] Scenario scenario_flash_crowd();
[[nodiscard]] Scenario scenario_lossy_wan();
[[nodiscard]] std::vector<Scenario> all_scenarios();

/// Instantiates a scenario on a fresh Testbed: builds the topology,
/// installs a BernoulliLoss whose probability the loss phases set, and
/// arms every phase. Keep the runtime alive while the simulation runs.
class ScenarioRuntime {
 public:
  ScenarioRuntime(const Scenario& scenario, std::uint64_t seed);

  [[nodiscard]] Testbed& testbed() { return *testbed_; }
  /// Cross-traffic packets offered so far across all phases.
  [[nodiscard]] std::uint64_t cross_packets_offered() const;

 private:
  std::unique_ptr<Testbed> testbed_;
  std::vector<std::unique_ptr<fobs::sim::OnOffSource>> sources_;
};

}  // namespace fobs::exp

// Tests for the scripted-scenario layer.
#include <gtest/gtest.h>

#include "exp/scenario.h"
#include "fobs/sim_transfer.h"

namespace fobs::exp {
namespace {

TEST(Scenario, AllPrebuiltScenariosConstruct) {
  for (const auto& scenario : all_scenarios()) {
    ScenarioRuntime runtime(scenario, 3);
    EXPECT_FALSE(scenario.name.empty());
    // Topology is live: endpoints exist and the clock is at zero.
    EXPECT_EQ(runtime.testbed().sim().now().ns(), 0);
  }
}

TEST(Scenario, TrafficPhasesStartAndStop) {
  auto scenario = scenario_congestion_episode();
  ScenarioRuntime runtime(scenario, 5);
  auto& sim = runtime.testbed().sim();

  sim.run_until(util::TimePoint::from_ns(util::Duration::milliseconds(400).ns()));
  const auto before_episode = runtime.cross_packets_offered();
  EXPECT_GT(before_episode, 0u);  // background phase active

  sim.run_until(util::TimePoint::from_ns(util::Duration::milliseconds(2400).ns()));
  const auto during_episode = runtime.cross_packets_offered();
  // 2 ms window of the hot phase: rate much higher than background.
  const double background_rate = static_cast<double>(before_episode) / 0.4;
  const double episode_rate =
      static_cast<double>(during_episode - before_episode) / 2.0;
  EXPECT_GT(episode_rate, 1.5 * background_rate);

  sim.run_until(util::TimePoint::from_ns(util::Duration::milliseconds(4400).ns()));
  const auto after_episode = runtime.cross_packets_offered();
  const double post_rate = static_cast<double>(after_episode - during_episode) / 2.0;
  EXPECT_LT(post_rate, 0.7 * episode_rate);  // hot sources stopped
}

TEST(Scenario, IdenticalSeedsGiveIdenticalWeather) {
  ScenarioRuntime a(scenario_steady_contention(), 11);
  ScenarioRuntime b(scenario_steady_contention(), 11);
  a.testbed().sim().run_until(util::TimePoint::from_ns(util::Duration::seconds(1).ns()));
  b.testbed().sim().run_until(util::TimePoint::from_ns(util::Duration::seconds(1).ns()));
  EXPECT_EQ(a.cross_packets_offered(), b.cross_packets_offered());
}

TEST(Scenario, TransferCompletesUnderEveryScenario) {
  for (const auto& scenario : all_scenarios()) {
    ScenarioRuntime runtime(scenario, 7);
    core::SimTransferConfig config;
    config.spec.object_bytes = 2 * 1024 * 1024;
    config.carry_data = true;
    const auto result =
        core::run_sim_transfer(runtime.testbed().network(), runtime.testbed().src(),
                               runtime.testbed().dst(), config);
    EXPECT_TRUE(result.completed) << scenario.name;
    EXPECT_TRUE(result.data_verified) << scenario.name;
  }
}

TEST(Scenario, LossyWanPhasesChangeTheDropRate) {
  auto scenario = scenario_lossy_wan();
  ScenarioRuntime runtime(scenario, 13);
  auto& bed = runtime.testbed();
  // Continuously transfer so packets traverse the backbone during all
  // phases; waste should be driven by the hot middle phase.
  core::SimTransferConfig config;
  config.spec.object_bytes = 24 * 1024 * 1024;  // ~2s at 100 Mb/s
  const auto result = core::run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(bed.backbone().stats().drops_random, 0u);
}

}  // namespace
}  // namespace fobs::exp

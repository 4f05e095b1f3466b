// Unit tests for the congestion-adaptive greediness controller (§7).
#include <gtest/gtest.h>

#include "fobs/adaptive.h"

namespace fobs::core {
namespace {

using util::Duration;

AdaptiveConfig enabled_config() {
  AdaptiveConfig config;
  config.enabled = true;
  return config;
}

TEST(Adaptive, DisabledControllerNeverBacksOff) {
  GreedinessController controller{AdaptiveConfig{}};  // enabled = false
  for (int i = 0; i < 100; ++i) controller.on_ack(100, 0);  // 100% loss!
  EXPECT_EQ(controller.gap(), Duration::zero());
  EXPECT_FALSE(controller.backing_off());
}

TEST(Adaptive, CleanPathStaysGreedy) {
  GreedinessController controller{enabled_config()};
  for (int i = 0; i < 100; ++i) controller.on_ack(64, 64);
  EXPECT_EQ(controller.gap(), Duration::zero());
  EXPECT_NEAR(controller.loss_estimate(), 0.0, 1e-9);
}

TEST(Adaptive, TransientLossIsSmoothedAway) {
  GreedinessController controller{enabled_config()};
  for (int i = 0; i < 20; ++i) controller.on_ack(64, 64);
  controller.on_ack(64, 0);  // one terrible ack
  for (int i = 0; i < 20; ++i) controller.on_ack(64, 64);
  EXPECT_EQ(controller.gap(), Duration::zero());
}

TEST(Adaptive, SustainedLossTriggersBackoff) {
  GreedinessController controller{enabled_config()};
  for (int i = 0; i < 50; ++i) controller.on_ack(100, 70);  // 30% loss
  EXPECT_TRUE(controller.backing_off());
  EXPECT_GE(controller.gap(), kSeedGap);
}

TEST(Adaptive, GapIsBoundedByMax) {
  GreedinessController controller{enabled_config()};
  for (int i = 0; i < 10000; ++i) controller.on_ack(100, 0);
  EXPECT_LE(controller.gap(), kMaxGap);
}

TEST(Adaptive, RecoversToFullGreedinessWhenLossClears) {
  GreedinessController controller{enabled_config()};
  for (int i = 0; i < 50; ++i) controller.on_ack(100, 60);
  ASSERT_TRUE(controller.backing_off());
  for (int i = 0; i < 500; ++i) controller.on_ack(100, 100);
  EXPECT_FALSE(controller.backing_off());
  EXPECT_EQ(controller.gap(), Duration::zero());
}

TEST(Adaptive, NoLaunchesMeansNoInformation) {
  GreedinessController controller{enabled_config()};
  for (int i = 0; i < 100; ++i) controller.on_ack(0, 0);
  EXPECT_NEAR(controller.loss_estimate(), 0.0, 1e-9);
  EXPECT_FALSE(controller.backing_off());
}

TEST(Adaptive, ReceiverAheadOfSenderClampsToZeroLoss) {
  // Retransmission catch-up can deliver more than was sent since the
  // last ack; the instantaneous estimate must clamp at zero.
  GreedinessController controller{enabled_config()};
  for (int i = 0; i < 20; ++i) controller.on_ack(10, 50);
  EXPECT_NEAR(controller.loss_estimate(), 0.0, 1e-9);
}

}  // namespace
}  // namespace fobs::core

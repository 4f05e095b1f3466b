// Unit tests for the RTT estimator / RTO calculation.
#include <gtest/gtest.h>

#include "net/rtt_estimator.h"

namespace fobs::net {
namespace {

using fobs::util::Duration;

TEST(RttEstimator, InitialRtoBeforeAnySample) {
  RttEstimator est;
  EXPECT_FALSE(est.has_sample());
  EXPECT_EQ(est.rto(), Duration::seconds(1));
}

TEST(RttEstimator, FirstSampleSetsSrttAndVar) {
  RttEstimator est;
  est.add_sample(Duration::milliseconds(100));
  EXPECT_TRUE(est.has_sample());
  EXPECT_EQ(est.srtt().ms(), 100);
  EXPECT_EQ(est.rttvar().ms(), 50);
  // RTO = srtt + 4*rttvar = 300 ms.
  EXPECT_EQ(est.rto().ms(), 300);
}

TEST(RttEstimator, ConvergesOnSteadyRtt) {
  RttEstimator est;
  for (int i = 0; i < 100; ++i) est.add_sample(Duration::milliseconds(80));
  EXPECT_NEAR(static_cast<double>(est.srtt().ms()), 80.0, 1.0);
  // Variance decays; RTO approaches the configured floor or srtt+small.
  EXPECT_LE(est.rto().ms(), 250);
  EXPECT_GE(est.rto().ms(), 200);  // kMinRto
}

TEST(RttEstimator, RespectsMinimumRto) {
  RttEstimator est;
  for (int i = 0; i < 50; ++i) est.add_sample(Duration::milliseconds(1));
  EXPECT_EQ(est.rto().ms(), 200);  // clamped to min
}

TEST(RttEstimator, BackoffDoublesUntilCap) {
  RttEstimator est;
  est.add_sample(Duration::milliseconds(500));
  const auto base = est.rto();
  est.backoff();
  EXPECT_EQ(est.rto().ns(), (base * 2).ns());
  est.backoff();
  EXPECT_EQ(est.rto().ns(), (base * 4).ns());
  for (int i = 0; i < 10; ++i) est.backoff();
  EXPECT_EQ(est.rto(), kMaxRto);  // capped
  EXPECT_GT(est.backoff_count(), 0);
}

TEST(RttEstimator, NewSampleClearsBackoff) {
  RttEstimator est;
  est.add_sample(Duration::milliseconds(100));
  est.backoff();
  est.backoff();
  EXPECT_GT(est.rto().ms(), 1000);
  est.add_sample(Duration::milliseconds(100));
  EXPECT_EQ(est.backoff_count(), 0);
  EXPECT_LE(est.rto().ms(), 400);
}

TEST(RttEstimator, VarianceTracksJitter) {
  RttEstimator est;
  for (int i = 0; i < 100; ++i) {
    est.add_sample(Duration::milliseconds(i % 2 == 0 ? 50 : 150));
  }
  // srtt near 100 ms, rttvar near 50 ms -> rto near 300 ms.
  EXPECT_NEAR(static_cast<double>(est.srtt().ms()), 100.0, 15.0);
  EXPECT_GT(est.rto().ms(), 250);
}

TEST(RttEstimator, NegativeSampleClamped) {
  RttEstimator est;
  est.add_sample(Duration::milliseconds(-5));
  EXPECT_GE(est.srtt().ns(), 0);
  EXPECT_GE(est.rto().ms(), 200);
}

}  // namespace
}  // namespace fobs::net

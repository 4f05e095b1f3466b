// Tests for the baseline protocols: TCP bulk, PSockets, RUDP, SABUL.
#include <gtest/gtest.h>

#include "baselines/psockets.h"
#include "baselines/rudp.h"
#include "baselines/sabul.h"
#include "baselines/tcp_bulk.h"
#include "exp/testbeds.h"

namespace fobs {
namespace {

using baselines::RudpConfig;
using baselines::SabulConfig;
using exp::PathId;
using exp::Testbed;

constexpr std::int64_t kSmallObject = 4 * 1024 * 1024;

TEST(TcpBulk, ShortHaulWithLweNearsLineRate) {
  // Big enough that slow start does not dominate the average.
  Testbed bed(PathId::kShortHaul);
  const auto result = baselines::run_tcp_transfer(bed.network(), bed.src(), bed.dst(),
                                                  16 * 1024 * 1024, baselines::tcp_with_lwe());
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.fraction_of(bed.spec().max_bandwidth), 0.6);
}

TEST(TcpBulk, WithoutLweIsWindowLimitedOnLongHaul) {
  // 64 KiB / 65 ms ~ 8 Mb/s: the Table 1 bottom row.
  auto spec = exp::spec_for(PathId::kLongHaul);
  spec.fwd_loss = 0;  // pure window arithmetic
  Testbed bed(spec);
  const auto result = baselines::run_tcp_transfer(bed.network(), bed.src(), bed.dst(),
                                                  kSmallObject, baselines::tcp_without_lwe());
  ASSERT_TRUE(result.completed);
  const double fraction = result.fraction_of(spec.max_bandwidth);
  EXPECT_GT(fraction, 0.05);
  EXPECT_LT(fraction, 0.12);
}

TEST(TcpBulk, LweBeatsNoLweOnLongHaul) {
  auto spec = exp::spec_for(PathId::kLongHaul);
  spec.fwd_loss = 0;
  Testbed bed1(spec);
  const auto with = baselines::run_tcp_transfer(bed1.network(), bed1.src(), bed1.dst(),
                                                kSmallObject, baselines::tcp_with_lwe());
  Testbed bed2(spec);
  const auto without = baselines::run_tcp_transfer(bed2.network(), bed2.src(), bed2.dst(),
                                                   kSmallObject, baselines::tcp_without_lwe());
  ASSERT_TRUE(with.completed && without.completed);
  EXPECT_GT(with.goodput_mbps, 2.0 * without.goodput_mbps);
}

TEST(Psockets, SingleStreamMatchesPlainTcp) {
  Testbed bed(PathId::kShortHaul);
  const auto result = baselines::run_psockets_transfer(
      bed.network(), bed.src(), bed.dst(), kSmallObject, 1,
      baselines::psockets_stream_config());
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.streams, 1);
  EXPECT_GT(result.goodput_mbps, 0.0);
}

TEST(Psockets, StripingAggregatesLimitedWindows) {
  // With 256 KiB per-socket buffers on a 65 ms path each stream is
  // window-limited; more streams must go materially faster.
  auto spec = exp::spec_for(PathId::kLongHaul);
  spec.fwd_loss = 0;
  const std::int64_t object = 16 * 1024 * 1024;  // long enough to leave slow start
  Testbed bed1(spec);
  const auto one = baselines::run_psockets_transfer(bed1.network(), bed1.src(), bed1.dst(),
                                                    object, 1,
                                                    baselines::psockets_stream_config());
  Testbed bed2(spec);
  const auto eight = baselines::run_psockets_transfer(bed2.network(), bed2.src(), bed2.dst(),
                                                      object, 8,
                                                      baselines::psockets_stream_config());
  ASSERT_TRUE(one.completed && eight.completed);
  EXPECT_GT(eight.goodput_mbps, 2.0 * one.goodput_mbps);
}

TEST(Rudp, CleanPathFinishesInOnePass) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 0;
  spec.rev_loss = 0;
  Testbed bed(spec);
  RudpConfig config;
  config.spec = {kSmallObject, 1024};
  const auto result = baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_EQ(result.passes, 1);
  EXPECT_DOUBLE_EQ(result.waste, 0.0);
  EXPECT_GT(result.fraction_of(spec.max_bandwidth), 0.6);
}

TEST(Rudp, LossyPathNeedsExtraPasses) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 5e-3;  // heavy loss: each pass loses ~20 packets
  Testbed bed(spec);
  RudpConfig config;
  config.spec = {kSmallObject, 1024};
  const auto result = baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_GE(result.passes, 2);
  EXPECT_GT(result.waste, 0.0);
}

TEST(Rudp, PacedBlastRespectsConfiguredRate) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 0;
  Testbed bed(spec);
  RudpConfig config;
  config.spec = {kSmallObject, 1024};
  config.send_rate = util::DataRate::megabits_per_second(20);
  const auto result = baselines::run_rudp_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_LT(result.goodput_mbps, 22.0);
  EXPECT_GT(result.goodput_mbps, 15.0);
}

TEST(Sabul, CleanPathHoldsItsConfiguredRate) {
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 0;
  Testbed bed(spec);
  SabulConfig config;
  config.spec = {kSmallObject, 1024};
  config.initial_rate = util::DataRate::megabits_per_second(90);
  const auto result =
      baselines::run_sabul_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.fraction_of(spec.max_bandwidth), 0.6);
  EXPECT_EQ(result.loss_reports, 0u);
}

TEST(Sabul, LossMakesItSlowDown) {
  // SABUL interprets loss as congestion (paper §2): its final rate must
  // drop below the configured one, unlike FOBS which stays greedy.
  auto spec = exp::spec_for(PathId::kShortHaul);
  spec.fwd_loss = 2e-3;
  Testbed bed(spec);
  SabulConfig config;
  config.spec = {kSmallObject, 1024};
  config.initial_rate = util::DataRate::megabits_per_second(90);
  const auto result =
      baselines::run_sabul_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);
  EXPECT_GT(result.loss_reports, 0u);
  EXPECT_LT(result.final_rate_mbps, 90.0);
}

}  // namespace
}  // namespace fobs

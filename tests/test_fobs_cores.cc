// Unit + property tests for the FOBS sender/receiver state machines and
// the selection policies.
#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "fobs/receiver_core.h"
#include "fobs/selection.h"
#include "fobs/sender_core.h"

namespace fobs::core {
namespace {

TransferSpec small_spec(std::int64_t packets = 100, std::int64_t packet_bytes = 1024) {
  return TransferSpec{packets * packet_bytes, packet_bytes};
}

// ---------------------------------------------------------------------------
// TransferSpec
// ---------------------------------------------------------------------------

TEST(TransferSpec, PacketGeometry) {
  TransferSpec spec{10 * 1024, 1024};
  EXPECT_EQ(spec.packet_count(), 10);
  EXPECT_EQ(spec.payload_bytes(0), 1024);
  EXPECT_EQ(spec.payload_bytes(9), 1024);
  EXPECT_EQ(spec.offset_of(3), 3 * 1024);
}

TEST(TransferSpec, ShortFinalPacket) {
  TransferSpec spec{1000, 300};
  EXPECT_EQ(spec.packet_count(), 4);
  EXPECT_EQ(spec.payload_bytes(0), 300);
  EXPECT_EQ(spec.payload_bytes(3), 100);
}

TEST(TransferSpec, WasteIsSendsBeyondTheNeededOverTheNeeded) {
  TransferSpec spec{1000, 300};  // 4 packets
  EXPECT_DOUBLE_EQ(spec.waste(4), 0.0);
  EXPECT_DOUBLE_EQ(spec.waste(6), 0.5);
  EXPECT_DOUBLE_EQ(spec.waste(2), -0.5);  // not done yet
  EXPECT_DOUBLE_EQ((TransferSpec{0, 300}.waste(3)), 0.0);  // nothing needed
}

// ---------------------------------------------------------------------------
// Selection policies
// ---------------------------------------------------------------------------

TEST(Selection, CircularVisitsEveryPacketOncePerCycle) {
  util::Bitmap acked(10);
  auto policy = make_selection_policy(SelectionKind::kCircular, util::Rng(1));
  std::vector<PacketSeq> first_cycle;
  for (int i = 0; i < 10; ++i) first_cycle.push_back(*policy->select(acked));
  std::vector<PacketSeq> expected{0, 1, 2, 3, 4, 5, 6, 7, 8, 9};
  EXPECT_EQ(first_cycle, expected);
  // Second cycle repeats in order (nothing acked yet).
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*policy->select(acked), i);
}

TEST(Selection, CircularSkipsAckedPackets) {
  util::Bitmap acked(6);
  auto policy = make_selection_policy(SelectionKind::kCircular, util::Rng(1));
  acked.set(0);
  acked.set(2);
  acked.set(4);
  EXPECT_EQ(*policy->select(acked), 1);
  EXPECT_EQ(*policy->select(acked), 3);
  EXPECT_EQ(*policy->select(acked), 5);
  EXPECT_EQ(*policy->select(acked), 1);  // wrapped
}

TEST(Selection, CircularReturnsNulloptWhenAllAcked) {
  util::Bitmap acked(4);
  acked.set_all();
  auto policy = make_selection_policy(SelectionKind::kCircular, util::Rng(1));
  EXPECT_FALSE(policy->select(acked).has_value());
}

TEST(Selection, LowestFirstHammersTheHead) {
  util::Bitmap acked(5);
  auto policy = make_selection_policy(SelectionKind::kLowestFirst, util::Rng(1));
  EXPECT_EQ(*policy->select(acked), 0);
  EXPECT_EQ(*policy->select(acked), 0);
  acked.set(0);
  acked.set(1);
  EXPECT_EQ(*policy->select(acked), 2);
}

TEST(Selection, RandomOnlyPicksUnacked) {
  util::Bitmap acked(50);
  for (std::size_t i = 0; i < 50; ++i) {
    if (i % 5 != 0) acked.set(i);  // only multiples of 5 unacked
  }
  auto policy = make_selection_policy(SelectionKind::kRandomUnacked, util::Rng(7));
  std::set<PacketSeq> seen;
  for (int i = 0; i < 200; ++i) {
    const auto seq = policy->select(acked);
    ASSERT_TRUE(seq.has_value());
    EXPECT_EQ(*seq % 5, 0);
    seen.insert(*seq);
  }
  EXPECT_GE(seen.size(), 8u);  // covers most of the 10 unacked packets
}

TEST(Selection, RandomHandlesSingleRemaining) {
  util::Bitmap acked(1000);
  acked.set_all();
  acked.clear(123);
  auto policy = make_selection_policy(SelectionKind::kRandomUnacked, util::Rng(9));
  for (int i = 0; i < 10; ++i) EXPECT_EQ(*policy->select(acked), 123);
}

// ---------------------------------------------------------------------------
// SenderCore
// ---------------------------------------------------------------------------

TEST(SenderCore, CountsSendsAndDuplicates) {
  SenderCore sender(small_spec(10), SenderConfig{});
  for (int i = 0; i < 15; ++i) EXPECT_TRUE(sender.select_next().has_value());
  EXPECT_EQ(sender.stats().packets_sent, 15);
  EXPECT_EQ(sender.stats().duplicate_sends, 5);
  EXPECT_DOUBLE_EQ(sender.waste(), 0.5);
}

TEST(SenderCore, AckStopsRetransmissionOfThosePackets) {
  SenderCore sender(small_spec(10), SenderConfig{});
  AckMessage ack;
  ack.frontier = 7;
  ack.total_received = 7;
  ack.ack_no = 1;
  EXPECT_EQ(sender.on_ack(ack), 7);
  std::set<PacketSeq> sent;
  for (int i = 0; i < 3; ++i) sent.insert(*sender.select_next());
  EXPECT_EQ(sent, (std::set<PacketSeq>{7, 8, 9}));
}

TEST(SenderCore, AllAckedStopsSelection) {
  SenderCore sender(small_spec(5), SenderConfig{});
  AckMessage ack;
  ack.complete = true;
  sender.on_ack(ack);
  EXPECT_TRUE(sender.all_acked());
  EXPECT_FALSE(sender.select_next().has_value());
  EXPECT_FALSE(sender.completion_received());  // separate signal
  sender.on_completion_signal();
  EXPECT_TRUE(sender.completion_received());
}

TEST(SenderCore, CircularInvariantHoldsUnderRandomAcks) {
  // The paper's rule: a packet is sent for the (n+1)-st time only when
  // every unacked packet has been sent at least n times. Equivalently,
  // among unacked packets, max(send_count) - min(send_count) <= 1.
  const auto spec = small_spec(64);
  SenderCore sender(spec, SenderConfig{});
  util::Rng rng(11);
  for (int step = 0; step < 3000; ++step) {
    if (sender.all_acked()) break;
    const auto seq = sender.select_next();
    ASSERT_TRUE(seq.has_value());
    if (rng.bernoulli(0.01)) {
      // Ack a random prefix + random bits, like a real transfer.
      AckMessage ack;
      ack.ack_no = static_cast<std::uint64_t>(step);
      ack.frontier = rng.uniform_int(0, 32);
      sender.on_ack(ack);
    }
    std::uint32_t max_unacked = 0;
    std::uint32_t min_unacked = ~0u;
    for (std::size_t i = 0; i < 64; ++i) {
      if (sender.acked_view().test(i)) continue;
      max_unacked = std::max(max_unacked, sender.send_counts()[i]);
      min_unacked = std::min(min_unacked, sender.send_counts()[i]);
    }
    if (min_unacked != ~0u) {
      EXPECT_LE(max_unacked - min_unacked, 1u) << "at step " << step;
    }
  }
}

TEST(SenderCore, AdaptiveBatchTracksAckRate) {
  SenderConfig config;
  config.batch_policy = BatchPolicy::kAckAdaptive;
  SenderCore sender(small_spec(10000), config);
  EXPECT_EQ(sender.current_batch_size(), 2);  // initial
  AckMessage a1;
  a1.ack_no = 1;
  a1.total_received = 0;
  sender.on_ack(a1);
  AckMessage a2;
  a2.ack_no = 2;
  a2.total_received = 64;  // 64 packets arrived between acks
  sender.on_ack(a2);
  EXPECT_EQ(sender.current_batch_size(), 32);  // half the observed rate
  // Stale ack (lower number) must not disturb the estimate.
  AckMessage stale;
  stale.ack_no = 1;
  stale.total_received = 0;
  sender.on_ack(stale);
  EXPECT_EQ(sender.current_batch_size(), 32);
}

TEST(SenderCore, FixedBatchIgnoresAckRate) {
  SenderConfig config;
  config.batch_size = 4;
  SenderCore sender(small_spec(100), config);
  AckMessage a1;
  a1.ack_no = 1;
  a1.total_received = 50;
  sender.on_ack(a1);
  EXPECT_EQ(sender.current_batch_size(), 4);
}

// ---------------------------------------------------------------------------
// ReceiverCore
// ---------------------------------------------------------------------------

TEST(ReceiverCore, TracksFrontierThroughOutOfOrderArrivals) {
  ReceiverCore receiver(small_spec(10), ReceiverConfig{.ack_frequency = 100});
  EXPECT_EQ(receiver.frontier(), 0);
  receiver.on_data_packet(1);
  receiver.on_data_packet(2);
  EXPECT_EQ(receiver.frontier(), 0);  // 0 still missing
  receiver.on_data_packet(0);
  EXPECT_EQ(receiver.frontier(), 3);  // jumps over 1, 2
  receiver.on_data_packet(9);
  EXPECT_EQ(receiver.frontier(), 3);
}

TEST(ReceiverCore, DuplicatesAreCountedNotReprocessed) {
  ReceiverCore receiver(small_spec(10), ReceiverConfig{.ack_frequency = 100});
  EXPECT_TRUE(receiver.on_data_packet(5).newly_received);
  const auto result = receiver.on_data_packet(5);
  EXPECT_FALSE(result.newly_received);
  EXPECT_FALSE(result.ack_due);
  EXPECT_EQ(receiver.stats().duplicates, 1);
  EXPECT_EQ(receiver.stats().packets_received, 1);
  EXPECT_EQ(receiver.stats().packets_seen, 2);
}

TEST(ReceiverCore, AckDueEveryFrequencyNewPackets) {
  ReceiverCore receiver(small_spec(100), ReceiverConfig{.ack_frequency = 4});
  int acks = 0;
  for (PacketSeq seq = 0; seq < 20; ++seq) {
    const auto result = receiver.on_data_packet(seq);
    if (result.ack_due) {
      ++acks;
      receiver.make_ack();  // resets the counter, like the driver does
    }
  }
  EXPECT_EQ(acks, 5);  // every 4th new packet
}

TEST(ReceiverCore, DuplicatesDoNotAdvanceAckCounter) {
  ReceiverCore receiver(small_spec(100), ReceiverConfig{.ack_frequency = 3});
  receiver.on_data_packet(0);
  receiver.on_data_packet(0);
  receiver.on_data_packet(0);
  EXPECT_FALSE(receiver.on_data_packet(0).ack_due);
  receiver.on_data_packet(1);
  EXPECT_TRUE(receiver.on_data_packet(2).ack_due);
}

TEST(ReceiverCore, CompletionForcesAckAndFlagsIt) {
  ReceiverCore receiver(small_spec(3), ReceiverConfig{.ack_frequency = 100});
  receiver.on_data_packet(0);
  receiver.on_data_packet(1);
  const auto result = receiver.on_data_packet(2);
  EXPECT_TRUE(result.just_completed);
  EXPECT_TRUE(result.ack_due);  // completion always acks
  EXPECT_TRUE(receiver.complete());
  const auto ack = receiver.make_ack();
  EXPECT_TRUE(ack.complete);
  EXPECT_EQ(ack.total_received, 3);
}

TEST(ReceiverCore, MakeAckReflectsBitmapState) {
  ReceiverCore receiver(small_spec(64), ReceiverConfig{.ack_frequency = 8,
                                                       .ack_payload_bytes = 1024});
  for (PacketSeq seq : {0, 1, 2, 5, 9}) receiver.on_data_packet(seq);
  const auto ack = receiver.make_ack();
  EXPECT_EQ(ack.frontier, 3);
  EXPECT_EQ(ack.total_received, 5);
  util::Bitmap view(64);
  apply_ack(ack, view);
  EXPECT_TRUE(view.test(5));
  EXPECT_TRUE(view.test(9));
  EXPECT_FALSE(view.test(4));
}

// Sender/receiver cores round trip: a lossless in-memory "transfer".
TEST(Cores, LosslessRoundTripConverges) {
  const auto spec = small_spec(1000);
  SenderCore sender(spec, SenderConfig{});
  ReceiverCore receiver(spec, ReceiverConfig{.ack_frequency = 16});
  int iterations = 0;
  while (!receiver.complete() && iterations < 100000) {
    ++iterations;
    const auto seq = sender.select_next();
    ASSERT_TRUE(seq.has_value());
    const auto result = receiver.on_data_packet(*seq);
    if (result.ack_due) sender.on_ack(receiver.make_ack());
  }
  EXPECT_TRUE(receiver.complete());
  EXPECT_EQ(sender.stats().packets_sent, 1000);  // zero loss -> zero waste
  EXPECT_DOUBLE_EQ(sender.waste(), 0.0);
}

// Property: with random loss between the cores, the transfer still
// converges and every byte-position is eventually received.
class CoreLossyRoundTrip : public ::testing::TestWithParam<std::tuple<double, std::int64_t>> {};

TEST_P(CoreLossyRoundTrip, ConvergesUnderLoss) {
  const auto [loss, ack_frequency] = GetParam();
  const auto spec = small_spec(2000);
  SenderCore sender(spec, SenderConfig{});
  ReceiverCore receiver(spec, ReceiverConfig{.ack_frequency = ack_frequency});
  util::Rng rng(42);
  int iterations = 0;
  while (!receiver.complete() && iterations < 1000000) {
    ++iterations;
    auto seq = sender.select_next();
    if (!seq) {
      // Sender's view is complete but maybe the last ack was lost; in a
      // real transfer the completion signal ends things. Here the view
      // can only be complete if the receiver acked everything.
      break;
    }
    if (rng.bernoulli(loss)) continue;  // data packet lost
    const auto result = receiver.on_data_packet(*seq);
    if (result.ack_due) {
      const auto ack = receiver.make_ack();
      if (!rng.bernoulli(loss)) sender.on_ack(ack);  // ack may be lost too
    }
  }
  EXPECT_TRUE(receiver.complete());
  EXPECT_GE(sender.stats().packets_sent, spec.packet_count());
}

INSTANTIATE_TEST_SUITE_P(LossGrid, CoreLossyRoundTrip,
                         ::testing::Combine(::testing::Values(0.0, 0.01, 0.1, 0.3),
                                            ::testing::Values<std::int64_t>(1, 16, 256)));

}  // namespace
}  // namespace fobs::core

// Real-socket FOBS over loopback: byte-exact delivery end to end, plus
// the give-up paths (no peer -> timeout within timeout_ms, with the
// telemetry trace ending in a timeout event).
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <thread>
#include <vector>

#include "fobs/object.h"
#include "fobs/posix/codec.h"
#include "fobs/posix/posix_transfer.h"
#include "telemetry/trace.h"

namespace fobs {
namespace {

// Distinct port bases per test to avoid rebind races.
std::uint16_t port_base(int offset) { return static_cast<std::uint16_t>(29000 + offset); }

TEST(FobsPosixCodec, DataHeaderRoundTrip) {
  std::uint8_t buf[posix::kDataHeaderSize];
  posix::encode_data_header(posix::DataHeader{123456789}, buf);
  const auto decoded = posix::decode_data_header(buf, sizeof buf);
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->seq, 123456789);
}

TEST(FobsPosixCodec, DataHeaderRejectsGarbage) {
  std::uint8_t buf[posix::kDataHeaderSize] = {0};
  EXPECT_FALSE(posix::decode_data_header(buf, sizeof buf).has_value());
  posix::encode_data_header(posix::DataHeader{1}, buf);
  EXPECT_FALSE(posix::decode_data_header(buf, 4).has_value());  // too short
}

TEST(FobsPosixCodec, AckRoundTrip) {
  core::AckMessage ack;
  ack.ack_no = 77;
  ack.total_received = 1234;
  ack.frontier = 999;
  ack.fragment_start = 1000;
  ack.fragment_bits = 20;
  ack.fragment = {0xFF, 0x0F, 0x03};
  ack.complete = false;
  const auto wire = posix::encode_ack(ack);
  const auto decoded = posix::decode_ack(wire.data(), wire.size());
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(decoded->ack_no, ack.ack_no);
  EXPECT_EQ(decoded->total_received, ack.total_received);
  EXPECT_EQ(decoded->frontier, ack.frontier);
  EXPECT_EQ(decoded->fragment_start, ack.fragment_start);
  EXPECT_EQ(decoded->fragment_bits, ack.fragment_bits);
  EXPECT_EQ(decoded->fragment, ack.fragment);
  EXPECT_EQ(decoded->complete, ack.complete);
}

TEST(FobsPosixCodec, AckRejectsTruncatedFragment) {
  core::AckMessage ack;
  ack.fragment_bits = 64;
  ack.fragment = std::vector<std::uint8_t>(8, 0xAA);
  auto wire = posix::encode_ack(ack);
  wire.resize(wire.size() - 4);  // chop fragment
  EXPECT_FALSE(posix::decode_ack(wire.data(), wire.size()).has_value());
}

void run_loopback_transfer(std::int64_t object_bytes, std::int64_t packet_bytes,
                           std::int64_t ack_frequency, int port_offset) {
  const auto object = core::make_pattern(object_bytes, 0xFEED + port_offset);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(port_offset);
  recv_opts.control_port = port_base(port_offset + 1);
  recv_opts.endpoint.packet_bytes = packet_bytes;
  recv_opts.core.ack_frequency = ack_frequency;
  recv_opts.endpoint.timeout_ms = 30'000;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.packet_bytes = packet_bytes;
  send_opts.endpoint.timeout_ms = 30'000;

  posix::TransferResult recv_result;
  std::thread receiver_thread([&] {
    recv_result = posix::receive_object(recv_opts, std::span<std::uint8_t>(sink));
  });
  // The receiver retries its control connect, so ordering is safe.
  const auto send_result =
      posix::send_object(send_opts, std::span<const std::uint8_t>(object));
  receiver_thread.join();

  ASSERT_TRUE(send_result.completed()) << send_result.error;
  ASSERT_TRUE(recv_result.completed()) << recv_result.error;
  EXPECT_EQ(sink, object);
  const auto packets_received = recv_result.flows.at(0).packets_received;
  EXPECT_EQ(packets_received, (object_bytes + packet_bytes - 1) / packet_bytes);
  EXPECT_GE(send_result.flows.at(0).packets_sent, packets_received);
}

TEST(FobsPosixTransfer, SmallObjectLoopback) { run_loopback_transfer(256 * 1024, 1024, 16, 0); }

TEST(FobsPosixTransfer, MultiMegabyteLoopback) {
  run_loopback_transfer(8 * 1024 * 1024, 1024, 64, 10);
}

TEST(FobsPosixTransfer, OddSizesLoopback) {
  // Non-multiple object size exercises the short final packet.
  run_loopback_transfer(1'000'003, 1472, 8, 20);
}

TEST(FobsPosixTransfer, LargePacketsLoopback) {
  run_loopback_transfer(4 * 1024 * 1024, 8192, 32, 30);
}

TEST(FobsPosixTransfer, SenderTimesOutWithNoReceiver) {
  const auto object = core::make_pattern(64 * 1024, 0xDEAD);
  telemetry::EventTracer trace;

  posix::SenderOptions opts;
  opts.data_port = port_base(40);
  opts.control_port = port_base(41);
  opts.endpoint.timeout_ms = 1'000;
  opts.endpoint.tracer = &trace;

  const auto start = std::chrono::steady_clock::now();
  const auto result = posix::send_object(opts, std::span<const std::uint8_t>(object));
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();

  EXPECT_FALSE(result.completed());
  EXPECT_EQ(result.status, posix::TransferStatus::kTimeout);
  EXPECT_FALSE(result.error.empty());
  // Must give up at its deadline, not hang (generous slack for CI).
  EXPECT_LT(elapsed_ms, opts.endpoint.timeout_ms + 5'000);

  const auto events = trace.snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, telemetry::EventType::kTransferStart);
  EXPECT_EQ(events.back().type, telemetry::EventType::kTimeout);
  EXPECT_EQ(trace.count(telemetry::EventType::kCompletion), 0);
}

TEST(FobsPosixTransfer, ReceiverTimesOutWithNoSender) {
  std::vector<std::uint8_t> sink(64 * 1024, 0);
  telemetry::EventTracer trace;

  posix::ReceiverOptions opts;
  opts.data_port = port_base(42);
  opts.control_port = port_base(43);
  opts.endpoint.timeout_ms = 1'000;
  opts.endpoint.tracer = &trace;

  const auto start = std::chrono::steady_clock::now();
  const auto result = posix::receive_object(opts, std::span<std::uint8_t>(sink));
  const auto elapsed_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                              std::chrono::steady_clock::now() - start)
                              .count();

  EXPECT_FALSE(result.completed());
  EXPECT_EQ(result.status, posix::TransferStatus::kPeerLost);
  EXPECT_FALSE(result.error.empty());
  EXPECT_LT(elapsed_ms, opts.endpoint.timeout_ms + 5'000);

  const auto events = trace.snapshot();
  ASSERT_FALSE(events.empty());
  EXPECT_EQ(events.front().type, telemetry::EventType::kTransferStart);
  EXPECT_EQ(events.back().type, telemetry::EventType::kTimeout);
}

}  // namespace
}  // namespace fobs

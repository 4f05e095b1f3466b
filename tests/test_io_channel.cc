// Batched datagram I/O layer tests: DatagramChannel mechanics (mode
// resolution, option validation, batched round-trips, garbage and short
// datagrams landing mid-recvmmsg-batch), byte-identical transfers with
// the fast path forced on and forced off, per-datagram fault injection
// inside gathered batches, and the syscalls-per-packet win the batched
// path exists for.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fobs/posix/codec.h"
#include "fobs/posix/posix_transfer.h"
#include "fobs/sim_transfer.h"
#include "net/datagram_channel.h"

namespace fobs {
namespace {

// Distinct port bases per test to avoid rebind races (clear of the
// 36xxx / 37xxx / 38xxx blocks used by the other POSIX suites).
std::uint16_t port_base(int offset) { return static_cast<std::uint16_t>(39000 + offset); }

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return addr;
}

// ---------------------------------------------------------------------------
// IoOptions validation
// ---------------------------------------------------------------------------

TEST(IoOptionsValidation, RejectsOutOfRangeValues) {
  net::IoOptions io;
  EXPECT_TRUE(io.validate().empty());

  io.send_batch = 0;
  EXPECT_NE(io.validate().find("send_batch"), std::string::npos);
  io.send_batch = net::kMaxBatchDatagrams + 1;
  EXPECT_NE(io.validate().find("send_batch"), std::string::npos);
  io.send_batch = net::kMaxBatchDatagrams;
  EXPECT_TRUE(io.validate().empty());

  io.recv_batch = -3;
  EXPECT_NE(io.validate().find("recv_batch"), std::string::npos);
  io.recv_batch = 1;
  EXPECT_TRUE(io.validate().empty());

  io.send_buffer_bytes = -1;
  EXPECT_NE(io.validate().find("send_buffer_bytes"), std::string::npos);
  io.send_buffer_bytes = 0;  // 0 = system default, valid
  io.recv_buffer_bytes = -1;
  EXPECT_NE(io.validate().find("recv_buffer_bytes"), std::string::npos);
}

TEST(IoOptionsValidation, BadIoOptionsYieldBadOptionsBeforeAnySocket) {
  const std::vector<std::uint8_t> object(1024, 0xAA);
  posix::SenderOptions send_opts;
  send_opts.data_port = port_base(0);
  send_opts.control_port = port_base(1);
  send_opts.endpoint.io.send_batch = 1000;
  auto sender = posix::send_object(send_opts, object);
  EXPECT_EQ(sender.status, posix::TransferStatus::kBadOptions);
  EXPECT_NE(sender.error.find("send_batch"), std::string::npos) << sender.error;

  std::vector<std::uint8_t> sink(1024, 0);
  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(0);
  recv_opts.control_port = port_base(1);
  recv_opts.endpoint.io.recv_batch = 0;
  auto receiver = posix::receive_object(recv_opts, sink);
  EXPECT_EQ(receiver.status, posix::TransferStatus::kBadOptions);
  EXPECT_NE(receiver.error.find("recv_batch"), std::string::npos) << receiver.error;
}

TEST(IoOptionsValidation, OpenRejectsInvalidOptions) {
  net::IoOptions io;
  io.recv_batch = 0;
  std::string error;
  auto channel = net::DatagramChannel::open(io, 2048, std::nullopt, &error);
  EXPECT_FALSE(channel.valid());
  EXPECT_NE(error.find("recv_batch"), std::string::npos) << error;
}

// ---------------------------------------------------------------------------
// Channel mechanics
// ---------------------------------------------------------------------------

TEST(IoChannel, ModeSwitchesSelectTheExpectedPath) {
  std::string error;
  net::IoOptions io;

  io.mode = net::IoMode::kFallback;
  auto fallback = net::DatagramChannel::open(io, 2048, std::nullopt, &error);
  ASSERT_TRUE(fallback.valid()) << error;
  EXPECT_FALSE(fallback.batched());

#if defined(__linux__)
  io.mode = net::IoMode::kBatched;
  auto batched = net::DatagramChannel::open(io, 2048, std::nullopt, &error);
  ASSERT_TRUE(batched.valid()) << error;
  EXPECT_TRUE(batched.batched());

  io.mode = net::IoMode::kAuto;
  auto auto_mode = net::DatagramChannel::open(io, 2048, std::nullopt, &error);
  ASSERT_TRUE(auto_mode.valid()) << error;
  EXPECT_TRUE(auto_mode.batched());
#endif
}

TEST(IoChannel, BatchRoundTripsGatheredDatagramsByteExact) {
  std::string error;
  net::IoOptions io;
  constexpr std::size_t kHeaderBytes = 4;
  constexpr std::size_t kPayloadBytes = 512;
  auto rx = net::DatagramChannel::open(io, kHeaderBytes + kPayloadBytes, 0, &error);
  ASSERT_TRUE(rx.valid()) << error;
  ASSERT_NE(rx.local_port(), 0);
  auto tx = net::DatagramChannel::open(io, kHeaderBytes + kPayloadBytes, std::nullopt, &error);
  ASSERT_TRUE(tx.valid()) << error;

  // 40 two-piece datagrams: a distinct header + a slice of one shared
  // payload buffer, exercising the scatter-gather path end to end.
  constexpr int kCount = 40;
  std::vector<std::array<std::uint8_t, kHeaderBytes>> headers(kCount);
  std::vector<std::uint8_t> payload(kCount * kPayloadBytes);
  util::Rng rng(0x10C4);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next());
  std::vector<net::DatagramView> batch;
  for (int i = 0; i < kCount; ++i) {
    headers[i] = {static_cast<std::uint8_t>(i), 0xAB, 0xCD,
                  static_cast<std::uint8_t>(~i)};
    batch.push_back({std::span<const std::uint8_t>(headers[i]),
                     std::span<const std::uint8_t>(payload.data() + i * kPayloadBytes,
                                                   kPayloadBytes)});
  }
  const auto dest = loopback(rx.local_port());
  ASSERT_TRUE(tx.send_batch(batch, dest, &error)) << error;
  EXPECT_EQ(tx.stats().datagrams_sent, static_cast<std::uint64_t>(kCount));

  // Drain, tolerating loopback scheduling: everything must arrive, in
  // order, byte-identical to header||payload.
  std::vector<net::RecvView> views(16);
  int received = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received < kCount && std::chrono::steady_clock::now() < deadline) {
    const int got = rx.recv_batch(views, &error);
    ASSERT_GE(got, 0) << error;
    if (got == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (int i = 0; i < got; ++i, ++received) {
      ASSERT_EQ(views[i].data.size(), kHeaderBytes + kPayloadBytes);
      EXPECT_EQ(views[i].data[0], static_cast<std::uint8_t>(received));
      EXPECT_EQ(std::memcmp(views[i].data.data() + kHeaderBytes,
                            payload.data() + received * kPayloadBytes, kPayloadBytes),
                0);
    }
  }
  ASSERT_EQ(received, kCount);
#if defined(__linux__)
  // The whole point: far fewer syscalls than datagrams on both sides.
  EXPECT_LE(tx.stats().send_syscalls * 4, tx.stats().datagrams_sent);
  EXPECT_LT(rx.stats().recv_syscalls, rx.stats().datagrams_received);
  EXPECT_EQ(tx.stats().copy_bytes_avoided,
            static_cast<std::int64_t>(kCount * kPayloadBytes));
#endif
}

TEST(IoChannel, GarbageAndShortDatagramsSurviveMidBatch) {
  // A recvmmsg batch containing a mix of valid FOBS data packets,
  // truncated packets, and raw junk: every slot must come back with its
  // exact size and bytes — one bad datagram must not poison its batch.
  std::string error;
  net::IoOptions io;
  auto rx = net::DatagramChannel::open(io, 2048, 0, &error);
  ASSERT_TRUE(rx.valid()) << error;
  auto tx = net::DatagramChannel::open(io, 2048, std::nullopt, &error);
  ASSERT_TRUE(tx.valid()) << error;

  std::vector<std::vector<std::uint8_t>> wire;
  util::Rng rng(0xBAD);
  for (int i = 0; i < 30; ++i) {
    std::vector<std::uint8_t> datagram;
    switch (i % 3) {
      case 0: {  // valid-looking data packet
        datagram.resize(posix::kDataHeaderSize + 64);
        for (auto& byte : datagram) byte = static_cast<std::uint8_t>(rng.next());
        posix::encode_data_header(posix::DataHeader{i, 0}, datagram.data());
        break;
      }
      case 1:  // short datagram (one lone byte)
        datagram = {static_cast<std::uint8_t>(i)};
        break;
      default:  // mid-size junk
        datagram.resize(1 + rng.next() % 256);
        for (auto& byte : datagram) byte = static_cast<std::uint8_t>(rng.next());
        break;
    }
    wire.push_back(std::move(datagram));
  }
  std::vector<net::DatagramView> batch;
  for (const auto& datagram : wire) {
    batch.push_back({std::span<const std::uint8_t>(datagram)});
  }
  ASSERT_TRUE(tx.send_batch(batch, loopback(rx.local_port()), &error)) << error;

  std::vector<net::RecvView> views(8);
  std::size_t received = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received < wire.size() && std::chrono::steady_clock::now() < deadline) {
    const int got = rx.recv_batch(views, &error);
    ASSERT_GE(got, 0) << error;
    if (got == 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
      continue;
    }
    for (int i = 0; i < got; ++i, ++received) {
      ASSERT_EQ(views[i].data.size(), wire[received].size());
      EXPECT_EQ(std::memcmp(views[i].data.data(), wire[received].data(),
                            wire[received].size()),
                0);
    }
  }
  ASSERT_EQ(received, wire.size());
}

// ---------------------------------------------------------------------------
// End-to-end transfers: batched vs fallback
// ---------------------------------------------------------------------------

struct TransferPair {
  posix::SenderResult sender;
  posix::ReceiverResult receiver;
};

TransferPair run_pair(const posix::SenderOptions& send_opts,
                      const posix::ReceiverOptions& recv_opts,
                      std::span<const std::uint8_t> object, std::span<std::uint8_t> sink) {
  TransferPair out;
  std::thread receiver_thread(
      [&] { out.receiver = posix::receive_object(recv_opts, sink).stripe_receivers.at(0); });
  out.sender = posix::send_object(send_opts, object).stripe_senders.at(0);
  receiver_thread.join();
  return out;
}

TransferPair run_mode_pair(int port_offset, net::IoMode mode,
                           std::span<const std::uint8_t> object,
                           std::span<std::uint8_t> sink, const std::string& fault_plan = {}) {
  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(port_offset);
  recv_opts.control_port = port_base(port_offset + 1);
  recv_opts.endpoint.timeout_ms = 30'000;
  recv_opts.endpoint.io.mode = mode;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;
  send_opts.endpoint.io.mode = mode;
  send_opts.endpoint.fault_plan = fault_plan;
  // A protocol batch large enough that the gather path has something to
  // gather (the paper's default of 2 packets per batch caps sendmmsg at
  // 2 datagrams per syscall).
  send_opts.core.batch_size = 32;
  return run_pair(send_opts, recv_opts, object, sink);
}

TEST(IoTransfer, BatchedAndFallbackTransfersAreByteIdentical) {
  const auto object = core::make_pattern(512 * 1024, 0x10AD);

  std::vector<std::uint8_t> fallback_sink(object.size(), 0);
  const auto fallback = run_mode_pair(10, net::IoMode::kFallback, object, fallback_sink);
  ASSERT_TRUE(fallback.receiver.completed()) << fallback.receiver.error;
  ASSERT_TRUE(fallback.sender.completed()) << fallback.sender.error;
  EXPECT_EQ(fallback_sink, object);
  // Fallback is the classic one-syscall-per-datagram path.
  EXPECT_EQ(fallback.sender.io.send_syscalls, fallback.sender.io.datagrams_sent);
  EXPECT_EQ(fallback.sender.io.copy_bytes_avoided, 0);

#if defined(__linux__)
  std::vector<std::uint8_t> batched_sink(object.size(), 0);
  const auto batched = run_mode_pair(12, net::IoMode::kBatched, object, batched_sink);
  ASSERT_TRUE(batched.receiver.completed()) << batched.receiver.error;
  ASSERT_TRUE(batched.sender.completed()) << batched.sender.error;
  EXPECT_EQ(batched_sink, object);
  EXPECT_EQ(batched_sink, fallback_sink);

  // Acceptance: the batched path must issue >=4x fewer data-plane send
  // syscalls per packet than the fallback path.
  ASSERT_GT(batched.sender.io.send_syscalls, 0u);
  EXPECT_LE(batched.sender.io.send_syscalls * 4, batched.sender.io.datagrams_sent);
  // Every payload byte went out gathered straight from the object.
  EXPECT_GE(batched.sender.io.copy_bytes_avoided,
            static_cast<std::int64_t>(object.size()));
#endif
}

TEST(IoTransfer, TransferSurvivesGarbageSprayedIntoBatches) {
  // Junk datagrams interleave with real data inside the receiver's
  // recvmmsg batches; the transfer must complete byte-identical.
  const auto object = core::make_pattern(256 * 1024, 0xF00D);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(16);
  recv_opts.control_port = port_base(17);
  recv_opts.endpoint.timeout_ms = 30'000;
  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;

  std::atomic<bool> stop{false};
  std::thread garbage_thread([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    const sockaddr_in to = loopback(recv_opts.data_port);
    util::Rng rng(0xBAD2);
    std::vector<std::uint8_t> junk(256);
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.next());
      const std::size_t len = 1 + static_cast<std::size_t>(rng.next() % junk.size());
      ::sendto(fd, junk.data(), len, 0, reinterpret_cast<const sockaddr*>(&to), sizeof to);
      std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    ::close(fd);
  });

  const auto pair = run_pair(send_opts, recv_opts, object, sink);
  stop.store(true);
  garbage_thread.join();

  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  ASSERT_TRUE(pair.sender.completed()) << pair.sender.error;
  EXPECT_EQ(sink, object);
}

// ---------------------------------------------------------------------------
// Fault injection must act per-datagram inside gathered batches
// ---------------------------------------------------------------------------

TEST(IoFaults, CorruptFaultHitsSingleDatagramsInsideBatches) {
  const auto object = core::make_pattern(256 * 1024, 0xC0DE);
  std::vector<std::uint8_t> sink(object.size(), 0);
  const auto pair =
      run_mode_pair(18, net::IoMode::kAuto, object, sink, "seed=11;data.corrupt=0.05");
  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  ASSERT_TRUE(pair.sender.completed()) << pair.sender.error;
  EXPECT_EQ(sink, object);
  // Some datagrams of each gathered batch were corrupted and rejected
  // by the receiver's CRC, while their batch-mates landed fine.
  EXPECT_GT(pair.receiver.corrupt_packets_dropped, 0);
  EXPECT_GT(pair.sender.packets_sent, pair.sender.packets_needed);
}

TEST(IoFaults, DropAndDuplicateFaultsActPerDatagramInsideBatches) {
  const auto object = core::make_pattern(256 * 1024, 0xD0D0);
  std::vector<std::uint8_t> sink(object.size(), 0);
  const auto pair = run_mode_pair(20, net::IoMode::kAuto, object, sink,
                                  "seed=7;data.drop=0.05;data.dup=0.05");
  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  ASSERT_TRUE(pair.sender.completed()) << pair.sender.error;
  EXPECT_EQ(sink, object);
  // Duplicated datagrams ride in the same batch as their original and
  // show up receiver-side as protocol duplicates.
  EXPECT_GT(pair.receiver.duplicates, 0);
  // Dropped datagrams cost resends: the sender selected more packets
  // than the object needs.
  EXPECT_GT(pair.sender.packets_sent, pair.sender.packets_needed);
}

}  // namespace
}  // namespace fobs

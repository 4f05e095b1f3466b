// Batched datagram I/O layer tests: DatagramChannel mechanics (open
// and not-open errors, the batch-size constants, moves, batched
// round-trips, garbage and short datagrams landing mid-recvmmsg-batch),
// byte-identical transfers, per-datagram fault injection inside
// gathered batches, and the syscalls-per-packet win the batched path
// exists for.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstring>
#include <fstream>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fobs/object.h"
#include "fobs/posix/codec.h"
#include "fobs/posix/posix_transfer.h"
#include "net/datagram_channel.h"

namespace fobs {
namespace {

// Distinct port bases per test to avoid rebind races (clear of the
// 29xxx / 30xxx / 31xxx blocks used by the other POSIX suites).
std::uint16_t port_base(int offset) { return static_cast<std::uint16_t>(32000 + offset); }

sockaddr_in loopback(std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  return addr;
}

// ---------------------------------------------------------------------------
// Channel mechanics
// ---------------------------------------------------------------------------

TEST(IoChannel, OpenRejectsZeroMaxDatagramBytes) {
  std::string error;
  auto channel = net::DatagramChannel::open({}, 0, std::nullopt, &error);
  EXPECT_FALSE(channel.valid());
  EXPECT_NE(error.find("max_datagram_bytes"), std::string::npos) << error;
}

TEST(IoChannel, UnopenedChannelReportsNotOpen) {
  net::DatagramChannel channel;
  EXPECT_FALSE(channel.valid());
  EXPECT_EQ(channel.local_port(), 0);
  const std::array<std::uint8_t, 4> header{1, 2, 3, 4};
  const std::array<net::DatagramView, 1> batch{
      net::DatagramView{std::span<const std::uint8_t>(header)}};
  std::string error;
  EXPECT_FALSE(channel.send_batch(batch, loopback(port_base(30)), &error));
  EXPECT_EQ(error, "channel not open");
  std::vector<net::RecvView> views(4);
  error.clear();
  EXPECT_EQ(channel.recv_batch(views, &error), -1);
  EXPECT_EQ(error, "channel not open");
}

TEST(IoChannel, EmptyBatchesMakeNoSyscall) {
  std::string error;
  auto channel = net::DatagramChannel::open({}, 64, 0, &error);
  ASSERT_TRUE(channel.valid()) << error;
  EXPECT_TRUE(channel.send_batch({}, loopback(channel.local_port()), &error)) << error;
  EXPECT_EQ(channel.recv_batch({}, &error), 0);
  EXPECT_EQ(channel.stats().send_syscalls, 0u);
  EXPECT_EQ(channel.stats().recv_syscalls, 0u);
}

TEST(IoChannel, MovedChannelKeepsItsSocket) {
  std::string error;
  auto original = net::DatagramChannel::open({}, 64, 0, &error);
  ASSERT_TRUE(original.valid()) << error;
  const std::uint16_t port = original.local_port();
  ASSERT_NE(port, 0);

  net::DatagramChannel moved = std::move(original);
  EXPECT_FALSE(original.valid());  // NOLINT(bugprone-use-after-move)
  ASSERT_TRUE(moved.valid());
  EXPECT_EQ(moved.local_port(), port);

  auto tx = net::DatagramChannel::open({}, 64, std::nullopt, &error);
  ASSERT_TRUE(tx.valid()) << error;
  const std::array<std::uint8_t, 3> header{7, 8, 9};
  const std::array<net::DatagramView, 1> batch{
      net::DatagramView{std::span<const std::uint8_t>(header)}};
  ASSERT_TRUE(tx.send_batch(batch, loopback(port), &error)) << error;
  std::vector<net::RecvView> views(4);
  int got = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (got == 0 && std::chrono::steady_clock::now() < deadline) {
    got = moved.recv_batch(views, &error);
    ASSERT_GE(got, 0) << error;
    if (got == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  ASSERT_EQ(got, 1);
  ASSERT_EQ(views[0].data.size(), header.size());
  EXPECT_EQ(views[0].data[2], 9);
}

TEST(IoChannel, SendBatchSplitsAtTheSendBatchConstant) {
  // 70 one-piece datagrams leave in ceil(70 / send_batch) sendmmsg
  // calls: 32 + 32 + 6.
  std::string error;
  auto rx = net::DatagramChannel::open({}, 64, 0, &error);
  ASSERT_TRUE(rx.valid()) << error;
  auto tx = net::DatagramChannel::open({}, 64, std::nullopt, &error);
  ASSERT_TRUE(tx.valid()) << error;
  constexpr int kCount = 70;
  const std::array<std::uint8_t, 16> header{};
  const std::vector<net::DatagramView> batch(
      kCount, net::DatagramView{std::span<const std::uint8_t>(header)});
  ASSERT_TRUE(tx.send_batch(batch, loopback(rx.local_port()), &error)) << error;
  EXPECT_EQ(tx.stats().datagrams_sent, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(tx.stats().bytes_sent, static_cast<std::int64_t>(kCount * header.size()));
  constexpr int kBatch = net::IoOptions::send_batch;
  EXPECT_EQ(tx.stats().send_syscalls,
            static_cast<std::uint64_t>((kCount + kBatch - 1) / kBatch));
}

TEST(IoChannel, RecvBatchDrainsAtMostRecvBatchPerCall) {
  std::string error;
  auto rx = net::DatagramChannel::open({}, 64, 0, &error);
  ASSERT_TRUE(rx.valid()) << error;
  auto tx = net::DatagramChannel::open({}, 64, std::nullopt, &error);
  ASSERT_TRUE(tx.valid()) << error;
  constexpr int kCount = 40;
  const std::array<std::uint8_t, 8> header{};
  const std::vector<net::DatagramView> batch(
      kCount, net::DatagramView{std::span<const std::uint8_t>(header)});
  ASSERT_TRUE(tx.send_batch(batch, loopback(rx.local_port()), &error)) << error;

  // Offer more views than the ring holds: no call may fill more than
  // IoOptions::recv_batch of them.
  std::vector<net::RecvView> views(2 * net::IoOptions::recv_batch);
  int received = 0;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
  while (received < kCount && std::chrono::steady_clock::now() < deadline) {
    const int got = rx.recv_batch(views, &error);
    ASSERT_GE(got, 0) << error;
    ASSERT_LE(got, net::IoOptions::recv_batch);
    if (got == 0) std::this_thread::sleep_for(std::chrono::milliseconds(1));
    received += got;
  }
  ASSERT_EQ(received, kCount);
  EXPECT_GE(rx.stats().recv_syscalls, 2u);
  EXPECT_EQ(rx.stats().datagrams_received, static_cast<std::uint64_t>(kCount));
  EXPECT_EQ(rx.stats().bytes_received, static_cast<std::int64_t>(kCount * header.size()));
}

int sysctl_int(const char* path) {
  std::ifstream in(path);
  int value = 0;
  in >> value;
  return value;
}

TEST(IoChannel, OpenRequestsTheSocketBufferConstants) {
  std::string error;
  auto channel = net::DatagramChannel::open({}, 64, std::nullopt, &error);
  ASSERT_TRUE(channel.valid()) << error;
  int rcvbuf = 0;
  int sndbuf = 0;
  socklen_t length = sizeof rcvbuf;
  ASSERT_EQ(::getsockopt(channel.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, &length), 0);
  length = sizeof sndbuf;
  ASSERT_EQ(::getsockopt(channel.fd(), SOL_SOCKET, SO_SNDBUF, &sndbuf, &length), 0);
  // The kernel grants min(request, net.core.{r,w}mem_max), doubled for
  // its own bookkeeping.
  const int rmem_max = sysctl_int("/proc/sys/net/core/rmem_max");
  const int wmem_max = sysctl_int("/proc/sys/net/core/wmem_max");
  ASSERT_GT(rmem_max, 0);
  ASSERT_GT(wmem_max, 0);
  EXPECT_EQ(rcvbuf, 2 * std::min(net::IoOptions::recv_buffer_bytes, rmem_max));
  EXPECT_EQ(sndbuf, 2 * std::min(net::IoOptions::send_buffer_bytes, wmem_max));
}

TEST(IoStats, PlusEqualsSumsEveryField) {
  net::IoStats a{1, 2, 3, 4, 5, 6, 7};
  const net::IoStats b{10, 20, 30, 40, 50, 60, 70};
  a += b;
  EXPECT_EQ(a.send_syscalls, 11u);
  EXPECT_EQ(a.recv_syscalls, 22u);
  EXPECT_EQ(a.datagrams_sent, 33u);
  EXPECT_EQ(a.datagrams_received, 44u);
  EXPECT_EQ(a.send_would_block, 55u);
  EXPECT_EQ(a.bytes_sent, 66);
  EXPECT_EQ(a.bytes_received, 77);
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
  // The whole point: far fewer syscalls than datagrams on both sides.
  EXPECT_LE(tx.stats().send_syscalls * 4, tx.stats().datagrams_sent);
  EXPECT_LT(rx.stats().recv_syscalls, rx.stats().datagrams_received);
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
// End-to-end transfers
// ---------------------------------------------------------------------------

struct TransferPair {
  posix::FlowResult sender;
  posix::FlowResult receiver;
};

TransferPair run_pair(const posix::SenderOptions& send_opts,
                      const posix::ReceiverOptions& recv_opts,
                      std::span<const std::uint8_t> object, std::span<std::uint8_t> sink) {
  TransferPair out;
  std::thread receiver_thread(
      [&] { out.receiver = posix::receive_object(recv_opts, sink).flows.at(0); });
  out.sender = posix::send_object(send_opts, object).flows.at(0);
  receiver_thread.join();
  return out;
}

TransferPair run_loopback_pair(int port_offset, std::span<const std::uint8_t> object,
                               std::span<std::uint8_t> sink,
                               const std::string& fault_plan = {}) {
  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(port_offset);
  recv_opts.control_port = port_base(port_offset + 1);
  recv_opts.endpoint.timeout_ms = 30'000;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;
  send_opts.endpoint.fault_plan = fault_plan;
  // A protocol batch large enough that the gather path has something to
  // gather (the paper's default of 2 packets per batch caps sendmmsg at
  // 2 datagrams per syscall).
  send_opts.core.batch_size = 32;
  return run_pair(send_opts, recv_opts, object, sink);
}

TEST(IoTransfer, TransferIsByteIdenticalWithFourDatagramsPerSendSyscall) {
  const auto object = core::make_pattern(512 * 1024, 0x10AD);
  std::vector<std::uint8_t> sink(object.size(), 0);
  const auto pair = run_loopback_pair(12, object, sink);
  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  ASSERT_TRUE(pair.sender.completed()) << pair.sender.error;
  EXPECT_EQ(sink, object);

  // Acceptance: at least 4x fewer data-plane send syscalls than
  // datagrams.
  ASSERT_GT(pair.sender.io.send_syscalls, 0u);
  EXPECT_LE(pair.sender.io.send_syscalls * 4, pair.sender.io.datagrams_sent);
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
  const auto pair = run_loopback_pair(18, object, sink, "seed=11;data.corrupt=0.05");
  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  ASSERT_TRUE(pair.sender.completed()) << pair.sender.error;
  EXPECT_EQ(sink, object);
  // Some datagrams of each gathered batch were corrupted and rejected
  // by the receiver's CRC, while their batch-mates landed fine.
  EXPECT_GT(pair.receiver.corrupt_dropped, 0);
  EXPECT_GT(pair.sender.packets_sent, pair.sender.packets_needed);
}

TEST(IoFaults, DropAndDuplicateFaultsActPerDatagramInsideBatches) {
  const auto object = core::make_pattern(256 * 1024, 0xD0D0);
  std::vector<std::uint8_t> sink(object.size(), 0);
  const auto pair =
      run_loopback_pair(20, object, sink, "seed=7;data.drop=0.05;data.dup=0.05");
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

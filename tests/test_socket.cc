// The shared POSIX socket helpers (net/socket.h) that every real-socket
// driver builds on: Fd ownership, address construction, non-blocking
// stream writes and reads with deadlines, TCP connect-with-backoff,
// listen, all-or-nothing block listen and accept, and the goodput
// conversion.
//
// Port block: 30500-30519 (test_stripes owns 30300-30499).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "net/socket.h"

namespace {

using fobs::net::Fd;
using Clock = std::chrono::steady_clock;
using namespace std::chrono_literals;

bool fd_is_open(int fd) { return ::fcntl(fd, F_GETFD) != -1 || errno != EBADF; }

/// A connected pair of non-blocking stream sockets with a small send
/// buffer, so a few hundred KiB cannot be written in one call.
std::pair<Fd, Fd> stream_pair() {
  int fds[2];
  if (::socketpair(AF_UNIX, SOCK_STREAM, 0, fds) != 0) return {};
  Fd a(fds[0]);
  Fd b(fds[1]);
  const int small = 4096;
  ::setsockopt(a.get(), SOL_SOCKET, SO_SNDBUF, &small, sizeof small);
  fobs::net::set_nonblocking(a.get());
  return {std::move(a), std::move(b)};
}

TEST(Socket, FdClosesOnDestructionAndMoveTransfersOwnership) {
  int raw = -1;
  {
    Fd a(::socket(AF_INET, SOCK_DGRAM, 0));
    ASSERT_TRUE(a.valid());
    raw = a.get();
    Fd b(std::move(a));
    EXPECT_FALSE(a.valid());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(b.get(), raw);
    Fd c;
    EXPECT_FALSE(c.valid());
    c = std::move(b);
    EXPECT_FALSE(b.valid());  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(c.get(), raw);
    EXPECT_TRUE(fd_is_open(raw));
  }
  EXPECT_FALSE(fd_is_open(raw));

  Fd d(::socket(AF_INET, SOCK_DGRAM, 0));
  const int first = d.get();
  d = Fd(::socket(AF_INET, SOCK_DGRAM, 0));  // assigning closes the old one
  EXPECT_TRUE(d.valid());
  EXPECT_NE(d.get(), first);
  EXPECT_FALSE(fd_is_open(first));
  d.reset();
  EXPECT_FALSE(d.valid());
  d.reset();  // a second reset is a no-op
  EXPECT_FALSE(d.valid());
}

TEST(Socket, MakeAddrEncodesHostAndPortInNetworkOrder) {
  const sockaddr_in addr = fobs::net::make_addr("127.0.0.1", 30500);
  EXPECT_EQ(addr.sin_family, AF_INET);
  EXPECT_EQ(ntohs(addr.sin_port), 30500);
  EXPECT_EQ(ntohl(addr.sin_addr.s_addr), INADDR_LOOPBACK);

  const sockaddr_in any = fobs::net::make_addr("0.0.0.0", 65535);
  EXPECT_EQ(ntohs(any.sin_port), 65535);
  EXPECT_EQ(any.sin_addr.s_addr, htonl(INADDR_ANY));

  char text[INET_ADDRSTRLEN] = {};
  const sockaddr_in other = fobs::net::make_addr("10.1.2.3", 1);
  ASSERT_NE(::inet_ntop(AF_INET, &other.sin_addr, text, sizeof text), nullptr);
  EXPECT_STREQ(text, "10.1.2.3");
}

TEST(Socket, SetNonblockingSetsTheFlagAndRejectsABadFd) {
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  ASSERT_TRUE(fd.valid());
  EXPECT_EQ(::fcntl(fd.get(), F_GETFL, 0) & O_NONBLOCK, 0);
  EXPECT_TRUE(fobs::net::set_nonblocking(fd.get()));
  EXPECT_NE(::fcntl(fd.get(), F_GETFL, 0) & O_NONBLOCK, 0);
  EXPECT_FALSE(fobs::net::set_nonblocking(-1));
}

TEST(Socket, SendAllDeliversEveryByteThroughAFullBuffer) {
  auto [writer, reader] = stream_pair();
  ASSERT_TRUE(writer.valid() && reader.valid());
  std::vector<std::uint8_t> payload(512 * 1024);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 131 + 7);
  }

  std::vector<std::uint8_t> received;
  std::thread drain([&, fd = reader.get()] {
    std::vector<std::uint8_t> chunk;
    while (received.size() < payload.size()) {
      pollfd pfd{fd, POLLIN, 0};
      ::poll(&pfd, 1, 100);
      if (fobs::net::read_closed(fd, chunk)) break;
      received.insert(received.end(), chunk.begin(), chunk.end());
    }
  });
  const bool sent =
      fobs::net::send_all(writer.get(), payload.data(), payload.size(), Clock::now() + 10s);
  drain.join();
  EXPECT_TRUE(sent);
  EXPECT_EQ(received, payload);
}

TEST(Socket, SendAllGivesUpAtTheDeadlineWhenThePeerNeverReads) {
  auto [writer, reader] = stream_pair();
  ASSERT_TRUE(writer.valid() && reader.valid());
  const std::vector<std::uint8_t> payload(8 * 1024 * 1024, 0xAB);
  const auto start = Clock::now();
  EXPECT_FALSE(
      fobs::net::send_all(writer.get(), payload.data(), payload.size(), start + 150ms));
  const auto took = Clock::now() - start;
  EXPECT_GE(took, 150ms);
  EXPECT_LT(took, 5s);
}

TEST(Socket, SendAllFailsWithoutSignalWhenThePeerIsGone) {
  auto [writer, reader] = stream_pair();
  ASSERT_TRUE(writer.valid() && reader.valid());
  reader.reset();
  const std::uint8_t byte = 1;
  // MSG_NOSIGNAL: EPIPE is reported, SIGPIPE would kill the test binary.
  EXPECT_FALSE(fobs::net::send_all(writer.get(), &byte, 1, Clock::now() + 1s));
  EXPECT_TRUE(fobs::net::send_all(writer.get(), &byte, 0, Clock::now() + 1s))
      << "an empty write has nothing to fail on";
}

TEST(Socket, ListenTcpIsNonBlockingAndRefusesABusyPort) {
  Fd listener = fobs::net::listen_tcp(30501, 4);
  ASSERT_TRUE(listener.valid());
  EXPECT_NE(::fcntl(listener.get(), F_GETFL, 0) & O_NONBLOCK, 0);
  // Nothing is queued yet: accept must not block.
  EXPECT_FALSE(fobs::net::accept_peer(listener).fd.valid());
  EXPECT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK);

  EXPECT_FALSE(fobs::net::listen_tcp(30501, 4).valid()) << "port already has a listener";
}

TEST(Socket, ListenTcpBlockLeavesNothingBoundWhenOnePortIsBusy) {
  Fd busy = fobs::net::listen_tcp(30512, 4);
  ASSERT_TRUE(busy.valid());
  EXPECT_TRUE(fobs::net::listen_tcp_block(30510, 4).empty()) << "30512 is held";
  // All or nothing: 30510 and 30511 were bound, then closed again.
  for (const std::uint16_t port : {30510, 30511, 30513}) {
    EXPECT_TRUE(fobs::net::listen_tcp(port, 1).valid()) << port << " left bound";
  }

  busy.reset();
  const auto block = fobs::net::listen_tcp_block(30510, 4);
  ASSERT_EQ(block.size(), 4u);
  for (std::size_t i = 0; i < block.size(); ++i) {
    sockaddr_in addr{};
    socklen_t len = sizeof addr;
    ASSERT_EQ(::getsockname(block[i].get(), reinterpret_cast<sockaddr*>(&addr), &len), 0);
    EXPECT_EQ(ntohs(addr.sin_port), static_cast<int>(30510 + i)) << "listener i is on first + i";
  }
  EXPECT_TRUE(fobs::net::listen_tcp_block(65534, 3).empty()) << "past 65535 is not wrapped";
  EXPECT_TRUE(fobs::net::listen_tcp_block(0, 1).empty()) << "port 0 is no fixed port";
}

TEST(Socket, ConnectWithBackoffWaitsForALateListener) {
  std::atomic<bool> listening{false};
  Fd listener;
  std::thread late([&] {
    std::this_thread::sleep_for(120ms);
    listener = fobs::net::listen_tcp(30502, 4);
    listening = true;
  });
  Fd client = fobs::net::connect_with_backoff("127.0.0.1", 30502, Clock::now() + 10s);
  late.join();
  ASSERT_TRUE(listening.load());
  ASSERT_TRUE(listener.valid());
  ASSERT_TRUE(client.valid());
  EXPECT_NE(::fcntl(client.get(), F_GETFL, 0) & O_NONBLOCK, 0)
      << "the connected socket is handed back non-blocking";

  pollfd pfd{listener.get(), POLLIN, 0};
  ASSERT_EQ(::poll(&pfd, 1, 2000), 1);
  const auto accepted = fobs::net::accept_peer(listener);
  ASSERT_TRUE(accepted.fd.valid());
  EXPECT_EQ(accepted.peer_host, "127.0.0.1");
  EXPECT_NE(::fcntl(accepted.fd.get(), F_GETFL, 0) & O_NONBLOCK, 0)
      << "the accepted socket is handed back non-blocking";
  const std::uint8_t hello[] = {'h', 'i', '\n'};
  ASSERT_TRUE(fobs::net::send_all(client.get(), hello, sizeof hello, Clock::now() + 2s));
  std::string line;
  EXPECT_TRUE(fobs::net::recv_line(accepted.fd.get(), Clock::now() + 2s, line));
  EXPECT_EQ(line, "hi");
}

TEST(Socket, ReadClosedHandsOverWhatArrivedThenReportsEof) {
  auto [writer, reader] = stream_pair();
  ASSERT_TRUE(writer.valid() && reader.valid());
  fobs::net::set_nonblocking(reader.get());
  std::vector<std::uint8_t> got = {9};
  EXPECT_FALSE(fobs::net::read_closed(reader.get(), got)) << "nothing to read is not closed";
  EXPECT_TRUE(got.empty());

  const std::uint8_t bytes[] = {1, 2, 3};
  ASSERT_TRUE(fobs::net::send_all(writer.get(), bytes, sizeof bytes, Clock::now() + 1s));
  writer.reset();
  EXPECT_FALSE(fobs::net::read_closed(reader.get(), got)) << "bytes come before the EOF";
  EXPECT_EQ(got, std::vector<std::uint8_t>({1, 2, 3}));
  EXPECT_TRUE(fobs::net::read_closed(reader.get(), got));
  EXPECT_TRUE(got.empty());
  EXPECT_TRUE(fobs::net::read_closed(-1, got)) << "a failed read counts as closed";
}

TEST(Socket, RecvLineGivesUpAtTheDeadlineOnAbortAndOnEof) {
  auto [writer, reader] = stream_pair();
  ASSERT_TRUE(writer.valid() && reader.valid());
  const std::uint8_t partial[] = {'a', 'b'};
  ASSERT_TRUE(fobs::net::send_all(writer.get(), partial, sizeof partial, Clock::now() + 1s));
  std::string line;
  const auto start = Clock::now();
  EXPECT_FALSE(fobs::net::recv_line(reader.get(), start + 150ms, line));
  EXPECT_GE(Clock::now() - start, 150ms) << "waits out the whole deadline";
  EXPECT_EQ(line, "ab") << "what arrived before the deadline is kept";

  const std::atomic<bool> abort{true};
  EXPECT_FALSE(fobs::net::recv_line(reader.get(), Clock::now() + 30s, line, &abort));
  EXPECT_LT(Clock::now() - start, 5s) << "a set abort flag returns at once";

  writer.reset();
  EXPECT_FALSE(fobs::net::recv_line(reader.get(), Clock::now() + 30s, line));
  EXPECT_LT(Clock::now() - start, 5s) << "EOF before the newline returns at once";
}

TEST(Socket, ConnectWithBackoffGivesUpAtTheDeadline) {
  const auto start = Clock::now();
  Fd client = fobs::net::connect_with_backoff("127.0.0.1", 30503, start + 200ms);
  const auto took = Clock::now() - start;
  EXPECT_FALSE(client.valid());
  EXPECT_GE(took, 200ms);
  EXPECT_LT(took, 5s) << "backoff is capped, so the deadline is honoured closely";
}

TEST(Socket, ConnectWithBackoffStopsWhenCancelled) {
  std::atomic<bool> cancel{true};
  const auto start = Clock::now();
  EXPECT_FALSE(
      fobs::net::connect_with_backoff("127.0.0.1", 30504, start + 30s, &cancel).valid());
  EXPECT_LT(Clock::now() - start, 1s) << "a set flag stops before the first attempt";

  cancel = false;
  std::thread canceller([&] {
    std::this_thread::sleep_for(100ms);
    cancel = true;
  });
  const auto mid = Clock::now();
  EXPECT_FALSE(
      fobs::net::connect_with_backoff("127.0.0.1", 30504, mid + 30s, &cancel).valid());
  canceller.join();
  EXPECT_LT(Clock::now() - mid, 5s) << "cancelling mid-backoff returns well before the deadline";
}

TEST(Socket, MbpsIsMegabitsPerSecondAndZeroWithoutTime) {
  EXPECT_DOUBLE_EQ(fobs::net::mbps(125'000'000, 1.0), 1000.0);
  EXPECT_DOUBLE_EQ(fobs::net::mbps(125'000, 0.5), 2.0);
  EXPECT_DOUBLE_EQ(fobs::net::mbps(0, 3.0), 0.0);
  EXPECT_DOUBLE_EQ(fobs::net::mbps(1'000'000, 0.0), 0.0);
  EXPECT_DOUBLE_EQ(fobs::net::mbps(1'000'000, -1.0), 0.0);
}

}  // namespace

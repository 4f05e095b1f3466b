#include "net/socket.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <thread>

namespace fobs::net {

void Fd::reset() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
}

sockaddr_in make_addr(const std::string& host, std::uint16_t port) {
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, host.c_str(), &addr.sin_addr);
  return addr;
}

bool set_nonblocking(int fd) {
  const int flags = ::fcntl(fd, F_GETFL, 0);
  return flags >= 0 && ::fcntl(fd, F_SETFL, flags | O_NONBLOCK) == 0;
}

bool send_all(int fd, const std::uint8_t* data, std::size_t len,
              std::chrono::steady_clock::time_point deadline) {
  std::size_t off = 0;
  while (off < len) {
    const ssize_t n = ::send(fd, data + off, len - off, MSG_NOSIGNAL);
    if (n > 0) {
      off += static_cast<std::size_t>(n);
      continue;
    }
    if (n < 0 && (errno == EWOULDBLOCK || errno == EAGAIN || errno == EINTR)) {
      if (std::chrono::steady_clock::now() >= deadline) return false;
      pollfd pfd{fd, POLLOUT, 0};
      ::poll(&pfd, 1, 10);
      continue;
    }
    return false;
  }
  return true;
}

bool read_closed(int fd, std::vector<std::uint8_t>& out) {
  std::uint8_t tmp[4096];
  const ssize_t n = ::recv(fd, tmp, sizeof tmp, MSG_DONTWAIT);
  out.assign(tmp, tmp + std::max<ssize_t>(n, 0));
  return n == 0 || (n < 0 && errno != EWOULDBLOCK && errno != EAGAIN && errno != EINTR);
}

bool recv_line(int fd, std::chrono::steady_clock::time_point deadline, std::string& line,
               const std::atomic<bool>* abort) {
  line.clear();
  char ch = 0;
  while (line.size() < 512) {
    if (abort != nullptr && abort->load(std::memory_order_relaxed)) return false;
    const auto remaining = deadline - std::chrono::steady_clock::now();
    if (remaining <= std::chrono::steady_clock::duration::zero()) return false;
    // Rounded up, so the last poll does not wake before the deadline.
    const auto wait = std::chrono::ceil<std::chrono::milliseconds>(remaining).count();
    pollfd pfd{fd, POLLIN, 0};
    const int ready = ::poll(&pfd, 1, static_cast<int>(std::min<std::int64_t>(wait, 100)));
    if (ready < 0 && errno != EINTR) return false;
    if (ready <= 0) continue;
    const ssize_t n = ::recv(fd, &ch, 1, MSG_DONTWAIT);
    if (n == 0) return false;  // EOF before the newline
    if (n < 0) {
      if (errno == EWOULDBLOCK || errno == EAGAIN || errno == EINTR) continue;
      return false;
    }
    if (ch == '\n') return true;
    line.push_back(ch);
  }
  return false;  // over-long line
}

Fd connect_with_backoff(const std::string& host, std::uint16_t port,
                        std::chrono::steady_clock::time_point deadline,
                        const std::atomic<bool>* cancel) {
  auto backoff = std::chrono::milliseconds(5);
  constexpr auto kMaxBackoff = std::chrono::milliseconds(200);
  const sockaddr_in addr = make_addr(host, port);
  while (std::chrono::steady_clock::now() < deadline &&
         (cancel == nullptr || !cancel->load(std::memory_order_relaxed))) {
    Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
    if (!fd.valid()) return {};
    if (::connect(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) == 0) {
      set_nonblocking(fd.get());
      return fd;
    }
    // A failed connect() leaves the socket in an unusable state on some
    // platforms; start over with a fresh one after the backoff.
    fd.reset();
    std::this_thread::sleep_for(backoff);
    backoff = std::min(backoff * 2, kMaxBackoff);
  }
  return {};
}

Fd listen_tcp(std::uint16_t port, int backlog) {
  Fd fd(::socket(AF_INET, SOCK_STREAM, 0));
  if (!fd.valid()) return {};
  const int one = 1;
  ::setsockopt(fd.get(), SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);
  const sockaddr_in addr = make_addr("0.0.0.0", port);
  if (::bind(fd.get(), reinterpret_cast<const sockaddr*>(&addr), sizeof addr) != 0 ||
      ::listen(fd.get(), backlog) != 0 || !set_nonblocking(fd.get())) {
    return {};
  }
  return fd;
}

Accepted accept_peer(const Fd& listener) {
  sockaddr_in peer{};
  socklen_t peer_len = sizeof peer;
  Accepted accepted{Fd(::accept4(listener.get(), reinterpret_cast<sockaddr*>(&peer), &peer_len,
                                 SOCK_NONBLOCK)),
                    {}};
  if (accepted.fd.valid()) {
    char host[INET_ADDRSTRLEN] = {0};
    ::inet_ntop(AF_INET, &peer.sin_addr, host, sizeof host);
    accepted.peer_host = host;
  }
  return accepted;
}

std::vector<Fd> listen_tcp_block(std::uint16_t first, int count) {
  std::vector<Fd> block;
  if (first == 0 || count < 1 || first + count - 1 > 0xFFFF) return block;
  block.reserve(static_cast<std::size_t>(count));
  for (int i = 0; i < count; ++i) {
    Fd listener = listen_tcp(static_cast<std::uint16_t>(first + i), 1);
    if (!listener.valid()) return {};
    block.push_back(std::move(listener));
  }
  return block;
}

double mbps(std::int64_t bytes, double seconds) {
  if (seconds <= 0) return 0.0;
  return static_cast<double>(bytes) * 8.0 / seconds / 1e6;
}

}  // namespace fobs::net

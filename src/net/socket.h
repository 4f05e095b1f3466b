// Small POSIX socket helpers shared by the real-socket FOBS drivers,
// the datagram channel, the session engine and the file server: an RAII
// descriptor, IPv4 address construction, non-blocking stream I/O with
// deadlines, and TCP connect/listen/accept. No other module makes a
// stream-socket syscall.
#pragma once

#include <netinet/in.h>

#include <atomic>
#include <chrono>
#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace fobs::net {

/// RAII file descriptor (move-only; closes on destruction).
class Fd {
 public:
  Fd() = default;
  explicit Fd(int fd) : fd_(fd) {}
  ~Fd() { reset(); }
  Fd(Fd&& other) noexcept : fd_(other.fd_) { other.fd_ = -1; }
  Fd& operator=(Fd&& other) noexcept {
    if (this != &other) {
      reset();
      fd_ = other.fd_;
      other.fd_ = -1;
    }
    return *this;
  }
  Fd(const Fd&) = delete;
  Fd& operator=(const Fd&) = delete;

  [[nodiscard]] int get() const { return fd_; }
  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  void reset();

 private:
  int fd_ = -1;
};

/// IPv4 socket address for dotted-quad `host` and `port`.
[[nodiscard]] sockaddr_in make_addr(const std::string& host, std::uint16_t port);

bool set_nonblocking(int fd);

/// Writes `len` bytes to a non-blocking stream socket, polling for
/// writability, until done, a hard error, or `deadline`.
bool send_all(int fd, const std::uint8_t* data, std::size_t len,
              std::chrono::steady_clock::time_point deadline);

/// Reads whatever a non-blocking stream socket holds into `out`
/// (replacing its contents). True when the peer closed the stream (EOF)
/// or it failed; a stream with nothing to read yields false and no bytes.
bool read_closed(int fd, std::vector<std::uint8_t>& out);

/// Reads one '\n'-terminated line (newline stripped) from a stream
/// socket, giving up at `deadline` or as soon as `abort` (nullable) is
/// set. False on timeout, abort, EOF, error or a line over 512 bytes;
/// `line` holds whatever arrived.
bool recv_line(int fd, std::chrono::steady_clock::time_point deadline, std::string& line,
               const std::atomic<bool>* abort = nullptr);

/// Connects a fresh TCP socket to host:port, retrying with capped
/// exponential backoff until `deadline` or until `cancel` (nullable) is
/// set — the peer may not be listening yet. The connected socket is
/// non-blocking. Invalid Fd on failure.
[[nodiscard]] Fd connect_with_backoff(const std::string& host, std::uint16_t port,
                                      std::chrono::steady_clock::time_point deadline,
                                      const std::atomic<bool>* cancel = nullptr);

/// Non-blocking TCP listener on 0.0.0.0:`port` (SO_REUSEADDR). Invalid
/// Fd when the socket, bind or listen fails.
[[nodiscard]] Fd listen_tcp(std::uint16_t port, int backlog);

/// One connection taken off a listener, and its peer's dotted-quad address.
struct Accepted {
  Fd fd;  ///< non-blocking; invalid when no connection was pending
  std::string peer_host;
};

/// Accepts one pending connection on a non-blocking `listener`.
[[nodiscard]] Accepted accept_peer(const Fd& listener);

/// listen_tcp(first + i, 1) for every port of the contiguous block
/// [first, first + count), all or nothing: when any port cannot be
/// bound, or the block starts at port 0 or reaches past 65535, every
/// listener already bound is closed and the result is empty.
[[nodiscard]] std::vector<Fd> listen_tcp_block(std::uint16_t first, int count);

/// Goodput in megabits per second; 0 for a non-positive duration.
[[nodiscard]] double mbps(std::int64_t bytes, double seconds);

}  // namespace fobs::net

// Batched, scatter-gather datagram I/O for the real-socket drivers.
//
// The paper's FOBS loops pay one syscall plus one full-payload copy per
// packet — the per-packet-cost wall that caps reliable UDP transfer
// well below link speed. DatagramChannel removes both costs where the
// platform allows it:
//  * send_batch() pushes a whole FOBS batch with one sendmmsg() call,
//    each datagram gathered from two iovecs (header buffer + a pointer
//    straight into the caller's object mapping), so the payload is
//    never assembled into an intermediate packet buffer;
//  * recv_batch() drains the socket with one recvmmsg() call into a
//    pooled buffer ring owned by the channel.
// When sendmmsg/recvmmsg are unavailable (non-Linux builds, ENOSYS at
// runtime) — or when forced via IoOptions::mode — the
// channel degrades to the classic one-sendto/one-recvfrom-per-datagram
// path with an assembly copy, byte-identical on the wire.
//
// Telemetry (global metrics registry):
//   fobs.io.syscalls              data-plane syscalls that moved >=1 datagram
//   fobs.io.datagrams_per_syscall histogram of datagrams moved per syscall
//   fobs.io.copy_bytes_avoided    payload bytes gathered directly from
//                                 caller memory instead of being copied
#pragma once

#include <netinet/in.h>

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace fobs::telemetry {
class Counter;
class Histogram;
}  // namespace fobs::telemetry

namespace fobs::net {

/// Hard ceiling on datagrams per batched syscall (bounds the stack
/// arrays of mmsghdr/iovec and the receive pool).
inline constexpr int kMaxBatchDatagrams = 64;

enum class IoMode : std::uint8_t {
  kAuto = 0,  ///< batched when the platform has it
  kBatched,   ///< require sendmmsg/recvmmsg (open() fails where unavailable)
  kFallback,  ///< force the per-datagram sendto/recvfrom path
};

[[nodiscard]] const char* to_string(IoMode mode);

/// Datagram I/O tuning, embedded as `EndpointOptions::io` on the POSIX
/// transfer surface. Validated before any socket is touched.
struct IoOptions {
  IoMode mode = IoMode::kAuto;
  /// Max datagrams handed to one send syscall (1..kMaxBatchDatagrams).
  int send_batch = 32;
  /// Max datagrams drained by one receive syscall (1..kMaxBatchDatagrams).
  /// Also sizes the channel's pooled receive ring.
  int recv_batch = 32;
  /// SO_SNDBUF / SO_RCVBUF requests; 0 leaves the system default.
  int send_buffer_bytes = 1 << 20;
  int recv_buffer_bytes = 1 << 20;

  /// Empty string when valid; otherwise a human-readable reason.
  [[nodiscard]] std::string validate() const;
};

/// Per-channel I/O counters. Syscall counts include only calls that
/// moved at least one datagram; would-block probes are kept separately
/// so "syscalls per packet" stays an honest data-plane figure.
struct IoStats {
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t send_would_block = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;
  /// Payload bytes the gather path sent straight from caller memory
  /// (bytes the fallback path would have memcpy'd into a packet buffer).
  std::int64_t copy_bytes_avoided = 0;
};

/// One outgoing datagram as scatter-gather pieces. `payload` may be
/// empty (header-only datagrams, e.g. ACKs). Both spans must stay valid
/// for the duration of the send call.
struct DatagramView {
  std::span<const std::uint8_t> header;
  std::span<const std::uint8_t> payload{};

  [[nodiscard]] std::size_t size() const { return header.size() + payload.size(); }
};

/// One received datagram, viewing the channel's pooled ring. Valid only
/// until the next recv_batch() call on the same channel.
struct RecvView {
  std::span<std::uint8_t> data;
  sockaddr_in from{};
};

class DatagramChannel {
 public:
  DatagramChannel() = default;
  ~DatagramChannel();
  DatagramChannel(DatagramChannel&& other) noexcept;
  DatagramChannel& operator=(DatagramChannel&& other) noexcept;
  DatagramChannel(const DatagramChannel&) = delete;
  DatagramChannel& operator=(const DatagramChannel&) = delete;

  /// Opens a non-blocking UDP socket sized for datagrams of up to
  /// `max_datagram_bytes`. `bind_port` of nullopt leaves the socket
  /// unbound (a sender; the kernel binds it on first send); 0 binds an
  /// ephemeral port (see local_port()); anything else binds that port.
  /// Returns an invalid channel and fills `error` on failure — the
  /// options are validated first, so a bad IoOptions never touches a
  /// socket.
  static DatagramChannel open(const IoOptions& io, std::size_t max_datagram_bytes,
                              std::optional<std::uint16_t> bind_port, std::string* error);

  [[nodiscard]] bool valid() const { return fd_ >= 0; }
  [[nodiscard]] int fd() const { return fd_; }
  /// True while sendmmsg/recvmmsg drive the fast path. Can flip to
  /// false mid-life if the kernel reports ENOSYS on first use.
  [[nodiscard]] bool batched() const { return batched_; }
  /// The bound port (after an ephemeral bind), 0 when unbound.
  [[nodiscard]] std::uint16_t local_port() const;

  /// Sends every datagram in `batch` to `dest`, polling for
  /// writability on buffer pressure (the paper's select()-wait), so a
  /// true return means all of them entered the kernel. False on a hard
  /// socket error (fills `error`); datagrams before the failure were
  /// sent.
  bool send_batch(std::span<const DatagramView> batch, const sockaddr_in& dest,
                  std::string* error);

  /// Non-blocking drain: fills up to min(out.size(), recv_batch) views
  /// from one receive syscall. Returns the count, 0 when the socket has
  /// nothing (EWOULDBLOCK), -1 on a hard error (fills `error`).
  /// Returned views alias the channel's pool and die at the next call.
  int recv_batch(std::span<RecvView> out, std::string* error);

  [[nodiscard]] const IoStats& stats() const { return stats_; }

 private:
  void note_syscall(bool send, int datagrams);
  bool send_fallback(const DatagramView& datagram, const sockaddr_in& dest,
                     std::string* error);
  bool wait_writable();

  int fd_ = -1;
  bool batched_ = false;
  int send_batch_limit_ = 1;
  int recv_batch_limit_ = 1;
  std::size_t slot_bytes_ = 0;
  std::vector<std::uint8_t> rx_pool_;     ///< recv_batch_limit_ slots of slot_bytes_
  std::vector<std::uint8_t> tx_scratch_;  ///< fallback assembly buffer
  IoStats stats_;
  // Cached global-registry instruments (stable references; looked up
  // once at open so the hot path is a relaxed atomic add).
  fobs::telemetry::Counter* syscalls_metric_ = nullptr;
  fobs::telemetry::Counter* copy_avoided_metric_ = nullptr;
  fobs::telemetry::Histogram* per_syscall_metric_ = nullptr;
};

}  // namespace fobs::net

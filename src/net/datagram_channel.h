// Segmented, scatter-gather datagram I/O for the real-socket drivers.
//
// The paper's FOBS loops pay one syscall plus one full-payload copy per
// packet — the per-packet-cost wall that caps reliable UDP transfer
// well below link speed. DatagramChannel removes both costs:
//  * send_batch() hands each run of equal-size datagrams (a "train",
//    up to 64 of them and 65,507 bytes) to the kernel in one sendmsg()
//    with a UDP_SEGMENT cmsg; the kernel cuts it into the very same
//    datagrams a send per datagram would put on the wire. Each datagram
//    is gathered from two iovecs (header buffer + a pointer straight
//    into the caller's object mapping), so the payload is never
//    assembled into an intermediate packet buffer;
//  * recv_batch() drains the socket with one recvmmsg() call into a
//    pooled ring of 64 KiB slots; with UDP_GRO a slot holds a whole
//    train, which the channel splits back into one view per datagram.
// This is the channel's only path: a one-datagram run carries no cmsg.
// Batch sizes and socket buffers are the compile-time constants in
// IoOptions. queue_drops() reads the socket's receive-queue drop count
// with one getsockopt(SO_MEMINFO) (its SK_MEMINFO_DROPS entry, which the
// kernel bumps the moment a datagram finds the queue full); the receiver
// hands it back to the sender on ACKs.
//
// Telemetry (global metrics registry):
//   fobs.io.syscalls              data-plane syscalls that moved >=1 datagram
//   fobs.io.datagrams_per_syscall histogram of datagrams moved per syscall
#pragma once

#include <netinet/in.h>

#include <algorithm>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "net/socket.h"

namespace fobs::telemetry {
class Counter;
class Histogram;
}  // namespace fobs::telemetry

namespace fobs::net {

/// Datagram I/O constants. The type has no settable field; it stays a
/// type because perfbench/src/layers.cc names it.
struct IoOptions {
  /// Max datagrams handed to one segmented sendmsg call (the kernel's
  /// UDP_MAX_SEGMENTS).
  static constexpr int send_batch = 64;
  /// Max bytes of one segmented send: the largest IPv4 UDP payload.
  static constexpr std::size_t max_train_bytes = 65'507;
  /// Max datagram views one recv_batch call returns.
  static constexpr int recv_batch = 32;
  /// The pooled receive ring: slots drained by one recvmmsg call, each
  /// large enough for a whole coalesced train.
  static constexpr int recv_slots = 8;
  static constexpr std::size_t recv_slot_bytes = 64 * 1024;
  /// SO_SNDBUF / SO_RCVBUF requests.
  static constexpr int send_buffer_bytes = 1 << 20;
  static constexpr int recv_buffer_bytes = 1 << 20;
};

/// Datagrams of `datagram_bytes` that one segmented send carries: 62 at
/// 1 KiB payloads, 7 at 8 KiB, 1 from 32 KiB up.
[[nodiscard]] constexpr int segments_per_send(std::size_t datagram_bytes) {
  const std::size_t fit = IoOptions::max_train_bytes / std::max<std::size_t>(datagram_bytes, 1);
  return static_cast<int>(
      std::clamp<std::size_t>(fit, 1, static_cast<std::size_t>(IoOptions::send_batch)));
}

/// Per-channel I/O counters. Datagram counts are datagrams on the wire
/// (segments), syscall counts are calls: a segmented send or a
/// coalesced receive moves many datagrams in one call. Syscall counts
/// include only calls that moved at least one datagram; would-block
/// probes are kept separately so "syscalls per packet" stays an honest
/// data-plane figure.
struct IoStats {
  std::uint64_t send_syscalls = 0;
  std::uint64_t recv_syscalls = 0;
  std::uint64_t datagrams_sent = 0;
  std::uint64_t datagrams_received = 0;
  std::uint64_t send_would_block = 0;
  std::int64_t bytes_sent = 0;
  std::int64_t bytes_received = 0;

  IoStats& operator+=(const IoStats& other);
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
  /// Opens a non-blocking UDP socket with UDP_GRO set,
  /// for datagrams of up to `max_datagram_bytes` (at most
  /// IoOptions::recv_slot_bytes; every slot holds a whole train). `bind_port` of nullopt leaves the
  /// socket unbound (a sender; the kernel binds it on first send); 0
  /// binds an ephemeral port (see local_port()); anything else binds
  /// that port. Returns an invalid channel and fills `error` on failure.
  /// The unused first parameter is pinned by perfbench/src/{main,layers}.cc.
  static DatagramChannel open(const IoOptions&, std::size_t max_datagram_bytes,
                              std::optional<std::uint16_t> bind_port, std::string* error);

  [[nodiscard]] bool valid() const { return fd_.valid(); }
  [[nodiscard]] int fd() const { return fd_.get(); }
  /// Always true (one path); pinned by perfbench/src/main.cc.
  [[nodiscard]] bool batched() const { return true; }
  /// The bound port (after an ephemeral bind), 0 when unbound.
  [[nodiscard]] std::uint16_t local_port() const;

  /// Sends every datagram in `batch` to `dest`, one sendmsg per run of
  /// consecutive equal-size datagrams (the last of a run may be
  /// shorter), polling for writability on buffer pressure (the paper's
  /// select()-wait), so a true return means all of them entered the
  /// kernel. False on a hard socket error (fills `error`); runs before
  /// the failure were sent. A route that refuses segmentation (EIO or
  /// EINVAL) drops the channel to one datagram per send for the rest of
  /// its life, with one warning.
  bool send_batch(std::span<const DatagramView> batch, const sockaddr_in& dest,
                  std::string* error);

  /// Non-blocking drain: fills up to min(out.size(), recv_batch) views,
  /// one per datagram, in arrival order. Views left over from the
  /// previous call's recvmmsg come first, and while any are left no
  /// syscall is made. Returns the count, 0 when the socket has nothing
  /// (EWOULDBLOCK), -1 on a hard error (fills `error`). Returned views
  /// alias the channel's pool and die at the next call.
  int recv_batch(std::span<RecvView> out, std::string* error);

  [[nodiscard]] const IoStats& stats() const { return stats_; }
  /// Datagrams (or coalesced trains) the kernel has dropped at this
  /// socket's full receive queue so far, read now with one
  /// getsockopt(SO_MEMINFO) whether or not anything was read since
  /// (cumulative, wraps at 2^32); 0 when the kernel does not report it.
  [[nodiscard]] std::uint32_t queue_drops() const;

 private:
  void note_syscall(bool send, int datagrams);
  bool wait_writable();
  /// Sends `run` as one train; 0 on success, else errno.
  int send_train(std::span<const DatagramView> run, const sockaddr_in& dest);

  Fd fd_;
  std::vector<std::uint8_t> rx_pool_;  ///< IoOptions::recv_slots slots of recv_slot_bytes
  /// The last recvmmsg's datagrams; [pending_at_, pending_.size()) are
  /// still to be returned.
  std::vector<RecvView> pending_;
  std::size_t pending_at_ = 0;
  /// Segments per send: send_batch, or 1 once the route refused one.
  int max_segments_ = IoOptions::send_batch;
  IoStats stats_;
  // Cached global-registry instruments (stable references; looked up
  // once at open so the hot path is a relaxed atomic add).
  fobs::telemetry::Counter* syscalls_metric_ = nullptr;
  fobs::telemetry::Histogram* per_syscall_metric_ = nullptr;
};

}  // namespace fobs::net

// Real-socket (POSIX) FOBS drivers.
//
// The same SenderCore/ReceiverCore state machines that run in the
// simulator, driven by non-blocking UDP sockets plus a TCP completion
// channel — the paper's deployment shape. One UDP socket per side
// carries both data and acknowledgements (the receiver replies to the
// source address of the data packets, so no ack-port configuration is
// needed); a TCP connection from receiver to sender delivers the
// "all data received" signal.
//
// Two surfaces exist:
//   * the session engine (fobs/posix/engine.h) — N concurrent
//     transfers on a worker pool, each addressable through a
//     TransferHandle (wait/status/cancel);
//   * the blocking free functions below — thin wrappers over a
//     one-session engine, kept for callers that want exactly one
//     transfer and are happy to block for it.
//
// Results carry a TransferStatus (see fobs/posix/options.h); `error`
// is only the human-readable detail and `completed()` is derived from
// the status, so callers never classify outcomes by string matching.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>

#include "fobs/posix/options.h"
#include "fobs/receiver_core.h"
#include "fobs/sender_core.h"
#include "fobs/stripe/plan.h"
#include "net/faults.h"

namespace fobs::posix {

struct SenderOptions {
  std::string receiver_host = "127.0.0.1";
  std::uint16_t data_port = 0;     ///< receiver's UDP port (required)
  std::uint16_t control_port = 0;  ///< sender's TCP listen port (required)
  fobs::core::SenderConfig core;
  /// Knobs shared with the receive side (packet size, stall budget,
  /// fault plan, tracer, datagram I/O tuning — SO_SNDBUF now lives at
  /// `endpoint.io.send_buffer_bytes`).
  EndpointOptions endpoint;
  /// When active, this session carries one stripe of a striped
  /// transfer: sequence numbers (and ACKs and bitmaps) are stripe-local,
  /// while `object` must still span the *whole* object — payload bytes
  /// are gathered at plan-computed global offsets. Both peers must
  /// build the same plan (see fobs/stripe/striped_transfer.h).
  stripe::StripeRef stripe;
};

struct SenderResult {
  TransferStatus status = TransferStatus::kPending;
  std::string error;  ///< human-readable detail; empty on success
  double elapsed_seconds = 0.0;
  std::int64_t packets_sent = 0;
  std::int64_t packets_needed = 0;
  double waste = 0.0;
  double goodput_mbps = 0.0;
  /// ACK datagrams that arrived but failed to decode (corrupt/garbage).
  std::int64_t corrupt_acks_dropped = 0;
  /// Valid ACKs discarded because their epoch did not match the current
  /// receiver incarnation (late datagrams from before a reconnect).
  std::int64_t stale_acks_dropped = 0;
  /// Control-channel connections accepted after the first one (a
  /// restarted receiver reconnecting).
  int reconnects = 0;
  /// Data-plane I/O counters for this transfer's datagram channel
  /// (syscalls, datagrams, payload copy bytes avoided by the gather
  /// path).
  fobs::net::IoStats io;

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
};

/// Sends `object` to a receive_object() peer. Blocks until the
/// completion signal arrives or the stall budget expires.
SenderResult send_object(const SenderOptions& options, std::span<const std::uint8_t> object);

struct ReceiverOptions {
  std::string sender_host = "127.0.0.1";
  std::uint16_t data_port = 0;     ///< local UDP port to bind (required)
  std::uint16_t control_port = 0;  ///< sender's TCP port (required)
  fobs::core::ReceiverConfig core;
  /// When non-empty, the receiver's bitmap is persisted here every
  /// `checkpoint_every_acks` acknowledgements, an existing compatible
  /// checkpoint is loaded on start (the caller must supply the same
  /// partially-filled buffer the previous incarnation wrote into —
  /// typically a TransferObject::map_file_rw mapping, which keeps the
  /// bytes on disk even across a hard crash; restoring a checkpoint
  /// over a buffer that lacks those bytes silently corrupts the
  /// object), and the file is removed once every packet of the object is
  /// set (with striping, once every stripe has folded its range in). A restarted
  /// receiver announces its restored bitmap to the sender over the
  /// control channel so already-received packets are not re-sent.
  std::string checkpoint_path;
  int checkpoint_every_acks = 16;
  /// Knobs shared with the send side. SO_RCVBUF — the buffer whose
  /// overflow during ACK construction the paper's Figure 1 studies —
  /// now lives at `endpoint.io.recv_buffer_bytes`.
  EndpointOptions endpoint;
  /// When active, this session receives one stripe into its plan-
  /// computed disjoint offsets of the whole-object `buffer` (which all
  /// stripes share — zero merge copies). checkpoint_path then names the
  /// object-level checkpoint all stripes share; this session restores
  /// and folds in only its own range of it (fobs/posix/checkpoint.h).
  stripe::StripeRef stripe;
};

struct ReceiverResult {
  TransferStatus status = TransferStatus::kPending;
  std::string error;  ///< human-readable detail; empty on success
  double elapsed_seconds = 0.0;
  std::int64_t packets_received = 0;
  std::int64_t duplicates = 0;
  double goodput_mbps = 0.0;
  /// Data packets rejected because their payload CRC32 failed.
  std::int64_t corrupt_packets_dropped = 0;
  /// Packets pre-seeded from a checkpoint instead of the network.
  std::int64_t packets_restored = 0;
  /// Control-channel reconnects performed after losing the connection.
  int reconnects = 0;
  /// Data-plane I/O counters for this transfer's datagram channel.
  fobs::net::IoStats io;

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
};

/// Receives an object of exactly `buffer.size()` bytes into `buffer`.
ReceiverResult receive_object(const ReceiverOptions& options, std::span<std::uint8_t> buffer);

namespace detail {

/// The actual blocking transfer loops. `cancel` (nullable) is polled
/// once per loop iteration; setting it makes the loop exit with
/// TransferStatus::kCancelled. The engine runs these on its workers;
/// the public free functions reach them through a one-session engine.
SenderResult run_sender(const SenderOptions& options, std::span<const std::uint8_t> object,
                        const std::atomic<bool>* cancel);
ReceiverResult run_receiver(const ReceiverOptions& options, std::span<std::uint8_t> buffer,
                            const std::atomic<bool>* cancel);

}  // namespace detail

}  // namespace fobs::posix

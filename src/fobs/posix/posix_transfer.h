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
// One transfer moves one object over `stripes` >= 1 such flows (the
// PSockets idea; one flow is the paper's FOBS). Every transfer runs on
// the transfer engine (fobs/posix/engine.h), which returns one
// TransferHandle per transfer; send_object/receive_object below are
// the blocking form, each on a private engine sized to the flow count.
//
// Results carry a TransferStatus (see fobs/posix/options.h); `error`
// is only the human-readable detail and `completed()` is derived from
// the status, so callers never classify outcomes by string matching.
#pragma once

#include <atomic>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "fobs/posix/options.h"
#include "fobs/receiver_core.h"
#include "fobs/sender_core.h"
#include "fobs/stripe/plan.h"
#include "net/datagram_channel.h"
#include "net/faults.h"

namespace fobs::posix {

struct SenderOptions {
  std::string receiver_host = "127.0.0.1";
  std::uint16_t data_port = 0;     ///< receiver's UDP port (required)
  std::uint16_t control_port = 0;  ///< sender's TCP listen port (required)
  fobs::core::SenderConfig core;
  /// Knobs shared with the receive side (packet size, stall budget,
  /// fault plan, tracer). SO_SNDBUF is the channel constant
  /// `net::IoOptions::send_buffer_bytes`.
  EndpointOptions endpoint;
  /// Parallel flows, in [1, StripePlan::max_stripes(object)]; the
  /// receiver must run the same count. Flow i sends to `data_port + i`
  /// and accepts its control connection on `control_port + i`, carrying
  /// the i-th contiguous stripe of the object (fobs/stripe/plan.h).
  int stripes = 1;
  /// Per-flow fault-plan overrides (index = flow; missing or empty
  /// entries keep endpoint.fault_plan). Lets tests kill one flow.
  std::vector<std::string> stripe_fault_plans;
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
  /// set (every flow folds its own range into this one file). A restarted
  /// receiver announces its restored bitmap to the sender over the
  /// control channel so already-received packets are not re-sent.
  std::string checkpoint_path;
  int checkpoint_every_acks = 16;
  /// Knobs shared with the send side. SO_RCVBUF — the buffer whose
  /// overflow during ACK construction the paper's Figure 1 studies —
  /// is the channel constant `net::IoOptions::recv_buffer_bytes`.
  EndpointOptions endpoint;
  /// Parallel flows; must match the sender. Flow i binds UDP
  /// `data_port + i`, connects to `control_port + i` and writes its
  /// stripe straight into `buffer` at plan offsets (no merge copies).
  int stripes = 1;
  std::vector<std::string> stripe_fault_plans;
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

/// Aggregate of one transfer plus every per-flow result.
struct TransferResult {
  /// kCompleted iff every flow completed; otherwise the most severe
  /// per-flow failure (options/socket errors over crash over cancel
  /// over peer-lost over timeout over stall).
  TransferStatus status = TransferStatus::kPending;
  std::string error;  ///< human-readable detail; empty on success
  bool is_sender = false;
  int stripes = 0;  ///< flows run (0 when the options were rejected)
  int stripes_completed = 0;
  /// Failed, but the object-level checkpoint holds what was delivered,
  /// so a retry at any flow count resumes instead of restarting.
  bool resumable = false;
  double elapsed_seconds = 0.0;  ///< slowest flow (wall clock)
  /// Whole-object goodput over the slowest flow's elapsed time.
  double goodput_mbps = 0.0;
  std::int64_t packets_restored = 0;  ///< summed over flows (receiver)
  /// Per-flow results, indexed by flow; senders fill stripe_senders,
  /// receivers stripe_receivers.
  std::vector<SenderResult> stripe_senders;
  std::vector<ReceiverResult> stripe_receivers;
  fobs::net::IoStats io;  ///< summed over flows

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
  /// Some flows delivered, some failed.
  [[nodiscard]] bool degraded() const { return !completed() && stripes_completed > 0; }
};

/// Sends `object` to a receive_object() peer over `options.stripes`
/// flows. Blocks until every flow has its completion signal or gave up.
TransferResult send_object(const SenderOptions& options, std::span<const std::uint8_t> object);
/// Receives an object of exactly `buffer.size()` bytes into `buffer`.
TransferResult receive_object(const ReceiverOptions& options, std::span<std::uint8_t> buffer);

namespace detail {

/// The blocking per-flow loops: flow `flow` of `plan`, with `options`
/// already resolved for that flow (ports, fault plan, tracer) and
/// `object`/`buffer` spanning the whole object. `cancel` (nullable) is
/// polled once per loop iteration; setting it makes the loop exit with
/// TransferStatus::kCancelled. The engine runs these on its workers
/// after validating the options and building the plan.
SenderResult run_sender(const SenderOptions& options, const stripe::StripePlan& plan, int flow,
                        std::span<const std::uint8_t> object, const std::atomic<bool>* cancel);
ReceiverResult run_receiver(const ReceiverOptions& options, const stripe::StripePlan& plan,
                            int flow, std::span<std::uint8_t> buffer,
                            const std::atomic<bool>* cancel);

}  // namespace detail

}  // namespace fobs::posix

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
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "fobs/object.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/options.h"
#include "fobs/receiver_core.h"
#include "fobs/sender_core.h"
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

struct ReceiverOptions {
  std::string sender_host = "127.0.0.1";
  std::uint16_t data_port = 0;     ///< local UDP port to bind (required)
  std::uint16_t control_port = 0;  ///< sender's TCP port (required)
  fobs::core::ReceiverConfig core;
  /// When non-empty, the transfer's checkpoint (fobs/posix/checkpoint.h):
  /// loaded once at submit, saved by each flow every
  /// `checkpoint_every_acks` acknowledgements, and removed by the engine
  /// once the transfer completes. The caller must supply the same
  /// partially filled buffer the previous incarnation wrote into,
  /// typically a TransferObject::map_file_rw mapping, which keeps the
  /// bytes on disk even across a hard crash (restoring a checkpoint over
  /// a buffer that lacks them silently corrupts the object). A restarted
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

/// One flow's result, read the same way for both ends. Counters the
/// other end keeps stay 0.
struct FlowResult {
  TransferStatus status = TransferStatus::kPending;
  std::string error;  ///< human-readable detail; empty on success
  double elapsed_seconds = 0.0;
  double goodput_mbps = 0.0;
  /// Datagrams rejected as corrupt: ACKs that failed to decode (send)
  /// or data packets whose packet CRC-32C failed (receive).
  std::int64_t corrupt_dropped = 0;
  /// Control connections after the first: a restarted or reconnecting peer.
  int reconnects = 0;
  fobs::net::IoStats io{};  ///< this flow's datagram channel's syscalls and datagrams

  // Send only.
  std::int64_t packets_sent = 0;
  std::int64_t packets_needed = 0;
  double waste = 0.0;
  /// Valid ACKs discarded because their epoch did not match the current
  /// receiver incarnation (late datagrams from before a reconnect).
  std::int64_t stale_acks_dropped = 0;

  // Receive only.
  std::int64_t packets_received = 0;
  std::int64_t duplicates = 0;
  /// Packets pre-seeded from a checkpoint instead of the network.
  std::int64_t packets_restored = 0;
  /// Datagrams the data socket dropped at its full receive queue
  /// (DatagramChannel::queue_drops when the flow ended).
  std::int64_t queue_drops = 0;
  /// Completed: CRC-32C of the flow's stripe, folded from the payload
  /// CRCs the packet checks computed (restored packets: from their bytes).
  std::uint32_t checksum = 0;

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
  /// Completed receive: CRC-32C of the whole object, the stripes'
  /// checksums folded in plan order (no pass over the buffer).
  std::uint32_t checksum = 0;
  /// Per-flow results, indexed by flow.
  std::vector<FlowResult> flows;
  fobs::net::IoStats io;  ///< summed over flows

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
  /// Some flows delivered, some failed.
  [[nodiscard]] bool degraded() const { return !completed() && stripes_completed > 0; }
};

/// Sends `object` to a receive_object() peer over `options.stripes`
/// flows. Blocks until every flow has its completion signal or gave up.
TransferResult send_object(const SenderOptions& options, std::span<const std::uint8_t> object);
/// Receives an object of exactly `buffer.size()` bytes into `buffer`.
/// `write_behind` (nullable) is told which pages of `buffer` are final.
TransferResult receive_object(const ReceiverOptions& options, std::span<std::uint8_t> buffer,
                              fobs::core::WriteBehindSink* write_behind = nullptr);

namespace detail {

/// One flow of a transfer, resolved once by the engine at submit: flow
/// i of a transfer on (data_port + i, control_port + i) carrying stripe
/// i of its StripePlan (fobs/stripe/plan.h). `Byte` is const for a send.
template <typename Byte>
struct Flow {
  std::uint16_t data_port = 0;
  std::uint16_t control_port = 0;
  /// The stripe viewed as a standalone transfer: the loop runs in its
  /// local sequence space [0, spec.packet_count()).
  fobs::core::TransferSpec spec;
  /// Object-wide sequence of the stripe's local packet 0; where the
  /// stripe's range of the transfer's checkpoint bitmap starts.
  std::int64_t first_packet = 0;
  /// The stripe's bytes: local packet `seq` is at spec.offset_of(seq).
  std::span<Byte> stripe;
  /// Parsed fault plan; nullopt when the flow runs without faults.
  std::optional<fobs::net::FaultPlan> fault_plan;
  /// Null when untraced. Its clock and transfer_start are already set.
  fobs::telemetry::EventTracer* tracer = nullptr;
};
using SendFlow = Flow<const std::uint8_t>;
using ReceiveFlow = Flow<std::uint8_t>;

/// The blocking per-flow socket pumps around the flow sessions
/// (fobs/posix/session.h), which the engine runs on its workers.
/// `options` are the transfer's (peer host, core configuration, timeout,
/// checkpoint cadence); everything per-flow is in `flow`. `cancel` (nullable) is
/// polled once per loop iteration; setting it makes the loop exit with
/// TransferStatus::kCancelled. `listener` is the flow's bound control
/// listener (on flow.control_port), closed when the flow returns.
/// `checkpoint` and `write_behind` are the transfer's (null without
/// one). The engine books the flow's terminal trace event and outcome
/// counters.
FlowResult run_sender(const SenderOptions& options, const SendFlow& flow,
                      fobs::net::Fd listener, const std::atomic<bool>* cancel);
FlowResult run_receiver(const ReceiverOptions& options, const ReceiveFlow& flow,
                        TransferCheckpoint* checkpoint,
                        fobs::core::WriteBehindSink* write_behind,
                        const std::atomic<bool>* cancel);

}  // namespace detail

}  // namespace fobs::posix

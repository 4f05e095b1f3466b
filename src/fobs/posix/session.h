// Sans-io FOBS flow sessions: every decision one POSIX flow adds to its
// core (header and CRC, fault injection, state frames, the ACK epoch
// filter, reconnects, the stall give-up, placement, checkpoint folds,
// counters and traces), with no socket, syscall or clock read. Inputs
// are what the pump saw and the time; outputs are what it does next.
// posix_transfer.cc pumps them over sockets; tests/test_sessions.cc
// over in-memory queues on a virtual clock.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "fobs/object.h"
#include "fobs/posix/codec.h"
#include "fobs/posix/posix_transfer.h"
#include "fobs/rate_cap.h"

namespace fobs::posix::detail {

using SessionTime = std::chrono::steady_clock::time_point;

/// Completion handshake: attempts a receiver makes, and how long each
/// waits for the sender's echo.
inline constexpr int kCompletionAttempts = 3;
inline constexpr std::chrono::milliseconds kCompletionEchoWait{1'000};
/// The sender's echo: one byte. Each control connection belongs to one
/// receiver incarnation, and the sender writes nothing else on it, so
/// any byte that arrives proves the completion frame was read.
inline constexpr std::array<std::uint8_t, 1> kCompletionEcho{0x01};

/// The terminal status, stall budget, fault injector and result of one
/// flow.
class FlowSession {
 public:
  /// The pump's socket failed: the flow ends with kSocketError.
  void on_socket_error(std::string error) {
    end(TransferStatus::kSocketError, std::move(error));
  }

 protected:
  FlowSession(int timeout_ms, const std::optional<fobs::net::FaultPlan>& plan,
              fobs::telemetry::EventTracer* tracer, SessionTime start);

  void restart_budget(SessionTime now) { next_check_ = now + interval_; }
  /// Cancel check, then `core.on_stall_interval()` per elapsed interval:
  /// a full budget of empty ones is a stall (a timeout when the flow
  /// never progressed). True, with the status set, when it must end.
  template <typename Core>
  bool budget_spent(SessionTime now, bool cancelled, Core& core, bool progressed);
  /// Counts one survived fault: result field, fobs.fault.* counter, trace.
  template <typename Count>
  void count_fault(Count& count, const char* metric, fobs::telemetry::EventType event,
                   std::int64_t seq = -1);
  void end(TransferStatus status, std::string error) {
    result_.status = status;
    result_.error = std::move(error);
  }
  /// Fills the result's status, timing and goodput; books injected faults.
  void close(SessionTime now, bool completed, std::int64_t object_bytes);
  [[nodiscard]] bool ended() const { return result_.status != TransferStatus::kRunning; }
  /// A control connection is up. True, and counted, when one was before.
  bool reconnected();
  [[nodiscard]] bool crash_due() const { return faults_ && faults_->crash_due(); }
  /// Ends the flow as kCrashed once the crash schedule is due.
  bool crash_now() {
    if (!crash_due()) return false;
    end(TransferStatus::kCrashed, "injected crash");
    return true;
  }
  [[nodiscard]] fobs::net::FaultDecision decide(fobs::net::FaultChannel channel) {
    return faults_ ? faults_->decide(channel) : fobs::net::FaultDecision{};
  }

  fobs::telemetry::EventTracer* const tracer_;
  /// kRunning until the flow ends.
  FlowResult result_;
  bool control_ever_connected_ = false;

 private:
  const SessionTime start_;
  const std::chrono::steady_clock::duration interval_;
  SessionTime next_check_;
  int streak_ = 0;
  std::optional<fobs::net::FaultInjector> faults_;
};

/// One sending flow. Per loop iteration the pump calls tick, accepts or
/// reads the control connection, hands in every queued ACK, and then
/// either waits (idle, or send_wait() is not zero) or sends next_batch()
/// and calls on_batch_sent. A completed flow writes completion_echo()
/// before it ends.
class SenderSession : public FlowSession {
 public:
  SenderSession(const SenderOptions& options, const SendFlow& flow, SessionTime start);

  /// Cancel and stall checks. True when the flow must end.
  bool tick(SessionTime now, bool cancelled);
  /// A control connection was accepted (after the last one closed). True
  /// when it is a reconnect: the ACK view is reset and the pump discards
  /// the ACKs already queued.
  [[nodiscard]] bool on_control_connected();
  /// Control-stream bytes. True when the stream desynced: the pump drops
  /// the connection and the receiver re-establishes it.
  [[nodiscard]] bool on_control_bytes(std::span<const std::uint8_t> bytes);
  /// One data-socket datagram, read at `now`; after completion it is
  /// only counted.
  void on_ack_datagram(std::span<const std::uint8_t> bytes, SessionTime now);
  /// Every packet is acked in the local view: nothing to send.
  [[nodiscard]] bool idle() const { return core_.all_acked(); }
  /// How long the rate cap holds the next train; zero when it may go.
  [[nodiscard]] SessionTime::duration send_wait(SessionTime now) const { return cap_.wait(now); }
  /// One train: as many whole FOBS batches as one segmented send of
  /// this packet size carries (at least one), but no more packets than
  /// the local view has unacked, as header + payload views, the fault
  /// schedule applied per datagram. Valid until the next call.
  std::span<const fobs::net::DatagramView> next_batch();
  /// The train was sent at `now`: traced and charged to the rate cap; a
  /// crash due while selecting ends the flow.
  void on_batch_sent(SessionTime now);
  [[nodiscard]] bool completed() const { return core_.completion_received(); }
  /// What the pump writes back on the control connection before the
  /// flow ends: the receiver waits for this echo (empty until completed).
  [[nodiscard]] std::span<const std::uint8_t> completion_echo() const {
    return completed() ? std::span<const std::uint8_t>(kCompletionEcho)
                       : std::span<const std::uint8_t>();
  }
  [[nodiscard]] bool done() const { return completed() || ended(); }
  /// The result, without the pump's I/O counters.
  FlowResult finish(SessionTime now);

 private:
  fobs::core::SenderCore core_;
  /// Datagrams one segmented send carries at this packet size.
  const int train_segments_;
  fobs::core::RateCap cap_;
  std::span<const std::uint8_t> stripe_;
  std::vector<std::uint8_t> control_buf_;
  /// Empty until a state frame names the receiver's epoch; then only its
  /// ACKs apply. A reconnect sets 0 (no receiver's) until the next frame.
  std::optional<std::uint32_t> epoch_;
  std::vector<std::array<std::uint8_t, kDataHeaderSize>> headers_;
  std::vector<fobs::net::DatagramView> views_;
  std::vector<std::vector<std::uint8_t>> corrupt_payloads_;
  int selected_ = 0;
  bool crash_pending_ = false;
};

/// One receiving flow. Every placed packet keeps its payload's CRC-32C,
/// and a completed flow's result carries its stripe's CRC folded from
/// them. With a write-behind sink, the stripe's whole pages are split
/// into windows of kWriteBehindWindowBytes, each counting the packets
/// that overlap it and are still missing; a window is handed over once,
/// when its last packet is placed (or restored).
///
/// The pump writes state_frame() on every control connection and hands
/// in every datagram (sending the ACK views returned back to its
/// source). Once completed() it runs the completion handshake: while
/// awaiting_echo(), each attempt writes state_frame(), now the completion
/// frame, reconnecting first when the connection is down, and hands in
/// control bytes until echoed(), EOF, an error or the attempt's deadline.
/// A flow that holds every packet ends kCompleted whether or not the echo
/// came.
class ReceiverSession : public FlowSession {
 public:
  /// Restores the flow's range of `checkpoint` (nullable). `epoch` is
  /// this incarnation's nonzero epoch, stamped on every ACK and frame.
  /// `write_behind` (nullable) is told which pages of the stripe are final.
  ReceiverSession(const ReceiverOptions& options, const ReceiveFlow& flow,
                  TransferCheckpoint* checkpoint, fobs::core::WriteBehindSink* write_behind,
                  std::uint32_t epoch, SessionTime start);

  /// The first control connect failed: ends the flow.
  void on_connect_failed(bool cancelled);
  /// A control connection is up: the first starts the stall budget, a
  /// later one counts as a reconnect.
  void on_control_connected(SessionTime now);
  /// What this incarnation holds; all packets is the completion signal.
  [[nodiscard]] std::vector<std::uint8_t> state_frame() const;
  /// Cancel, stall and crash checks. True when the flow must end.
  bool tick(SessionTime now, bool cancelled);
  /// One data-socket datagram. Only a valid one, of exactly its
  /// packet's length, is placed and may yield 0-2 ACK copies, valid
  /// until the next call.
  std::span<const fobs::net::DatagramView> on_datagram(std::span<const std::uint8_t> bytes);
  /// The data socket's cumulative queue-drop count, stamped on every
  /// later ACK (mod 2^16) for the sender's rate cap; the last one is the
  /// result's queue_drops.
  void on_queue_drops(std::uint32_t drops) { queue_drops_ = drops; }
  /// Completed, not yet echoed, and an attempt is left.
  [[nodiscard]] bool awaiting_echo() const {
    return completed() && !echoed_ && echo_attempts_ < kCompletionAttempts;
  }
  /// Starts one handshake attempt; returns its deadline.
  SessionTime begin_completion_attempt(SessionTime now) {
    ++echo_attempts_;
    return now + kCompletionEchoWait;
  }
  /// Control-stream bytes during the handshake: any byte is the
  /// sender's echo and sets echoed().
  void on_control_bytes(std::span<const std::uint8_t> bytes) {
    echoed_ = echoed_ || !bytes.empty();
  }
  [[nodiscard]] bool echoed() const { return echoed_; }
  /// Every packet is in, and the flow did not end first (a restored
  /// flow whose control connect failed ends kPeerLost).
  [[nodiscard]] bool completed() const { return core_.complete() && !ended(); }
  [[nodiscard]] bool done() const { return core_.complete() || ended(); }
  /// The result, without I/O counters; a completed flow folds its range
  /// into the checkpoint and its packet CRCs into the result's checksum.
  FlowResult finish(SessionTime now);

 private:
  /// Packet `seq` is in the stripe: counts it in the windows it
  /// overlaps and hands each window it completes to write_behind_.
  void count_placed(fobs::core::PacketSeq seq);

  fobs::core::ReceiverCore core_;
  std::span<std::uint8_t> stripe_;
  std::size_t first_packet_;
  TransferCheckpoint* const checkpoint_;
  fobs::core::WriteBehindSink* const write_behind_;
  /// The stripe's whole pages, as stripe offsets [pages_begin_,
  /// pages_end_): the pages it starts and ends in may hold a neighbour's
  /// bytes.
  std::int64_t pages_begin_ = 0;
  std::int64_t pages_end_ = 0;
  /// Per write-behind window: packets overlapping it not yet placed
  /// (empty without a sink).
  std::vector<std::int64_t> window_missing_;
  /// Per packet of the stripe: its payload's CRC-32C, once placed.
  std::vector<std::uint32_t> packet_crcs_;
  const std::uint32_t epoch_;
  const int checkpoint_every_acks_;
  int acks_since_checkpoint_ = 0;
  int echo_attempts_ = 0;
  bool echoed_ = false;
  std::uint32_t queue_drops_ = 0;
  std::vector<std::uint8_t> ack_;
  std::array<fobs::net::DatagramView, 2> ack_views_;
};

}  // namespace fobs::posix::detail

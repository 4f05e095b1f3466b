// Transport-agnostic FOBS sender state machine (paper §3.1).
//
// The sender iterates over three phases:
//   1. batch-send `batch_size` packets without blocking,
//   2. check for (but never block on) an acknowledgement and fold it
//      into the local view of the receiver's bitmap,
//   3. pick the next packets via the selection policy.
// It is *greedy*: it keeps (re)transmitting until the receiver's
// completion signal arrives over the TCP control channel.
//
// This class is sans-io: drivers (simulator or POSIX sockets) ask it
// which packet to send next and feed it ACK/completion events. All
// protocol behaviour is testable without a network.
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "common/bitmap.h"
#include "common/rng.h"
#include "fobs/ack.h"
#include "fobs/selection.h"
#include "fobs/types.h"
#include "telemetry/trace.h"

namespace fobs::core {

/// How the per-iteration batch size is chosen (paper §3.1.1 studies the
/// fixed value; adaptive is the "use ack deltas" variant the paper
/// sketches for phase 2).
enum class BatchPolicy {
  kFixed,
  /// Batch grows toward the observed receive rate between ACKs (half of
  /// the last inter-ACK delivery count), clamped to [1, 64].
  kAckAdaptive,
};

struct SenderConfig {
  int batch_size = 2;  ///< paper's best value
  BatchPolicy batch_policy = BatchPolicy::kFixed;
  SelectionKind selection = SelectionKind::kCircular;
  std::uint64_t seed = 1;  ///< for the random selection policy
};

struct SenderStats {
  std::int64_t packets_sent = 0;       ///< total, incl. retransmissions
  std::int64_t acks_processed = 0;
  std::int64_t packets_acked = 0;      ///< unique packets known received
  std::int64_t duplicate_sends = 0;    ///< sends beyond the first per packet
};

class SenderCore {
 public:
  SenderCore(TransferSpec spec, SenderConfig config);

  [[nodiscard]] const TransferSpec& spec() const { return spec_; }
  [[nodiscard]] const SenderConfig& config() const { return config_; }

  /// Picks the next packet to transmit and records it as sent. Call only
  /// when the datagram can actually be handed to the network (the driver
  /// has already checked writability — the paper's select() check).
  /// Returns nullopt when every packet is acked in the local view.
  std::optional<PacketSeq> select_next();

  /// Number of packets to send in the current batch (phase 1).
  [[nodiscard]] int current_batch_size() const { return batch_size_; }

  /// Folds an acknowledgement into the local view (phase 2).
  /// Returns the number of packets newly learned to be received.
  std::int64_t on_ack(const AckMessage& ack);

  /// Folds a resume handshake — the receiver's full packed bitmap
  /// (extract_range format, `nbits` packets from seq 0) — into the
  /// local view, so a restarted pair skips already-received packets.
  /// Returns the number of packets newly learned to be received, or -1
  /// when `nbits` does not match this transfer's packet count.
  std::int64_t on_resume(const std::uint8_t* packed, std::size_t packed_len,
                         std::int64_t nbits);

  /// The control channel was re-established by a (possibly restarted)
  /// receiver whose state is unknown: forget everything learned from
  /// ACKs so every packet becomes eligible for retransmission again. A
  /// restarted receiver that kept a checkpoint follows up with a resume
  /// frame (see on_resume) restoring exactly the bits it still holds; a
  /// from-scratch restart sends nothing and gets a full resend. For a
  /// receiver that merely lost the TCP connection this only costs some
  /// duplicate sends, which the receiver discards.
  void on_peer_restart();

  /// Progress-based stall detection: the driver calls this once per
  /// stall interval. An interval with zero newly-acked packets (and no
  /// completion) is "empty" and traced as a `stall` event; returns the
  /// current streak of consecutive empty intervals (0 after progress).
  int on_stall_interval();

  /// Attaches a per-transfer event tracer (nullptr = telemetry off, the
  /// default). The tracer must outlive the core; the core records
  /// protocol events (ACK processed, completion) and leaves transport
  /// events (batches, timeouts) to the driver.
  void set_tracer(telemetry::EventTracer* tracer) { tracer_ = tracer; }
  [[nodiscard]] telemetry::EventTracer* tracer() const { return tracer_; }

  /// The receiver's TCP "all data received" signal.
  void on_completion_signal() {
    completion_received_ = true;
    if (tracer_ != nullptr) {
      tracer_->record(telemetry::EventType::kCompletion, -1, stats_.packets_sent);
    }
  }
  [[nodiscard]] bool completion_received() const { return completion_received_; }

  /// True when the local view believes everything was received. The
  /// greedy sender keeps going until `completion_received()` regardless.
  [[nodiscard]] bool all_acked() const { return acked_view_.all_set(); }

  [[nodiscard]] const SenderStats& stats() const { return stats_; }
  [[nodiscard]] const fobs::util::Bitmap& acked_view() const { return acked_view_; }
  [[nodiscard]] const std::vector<std::uint32_t>& send_counts() const { return send_counts_; }

  /// The paper's wasted-resources metric over this core's sends.
  [[nodiscard]] double waste() const { return spec_.waste(stats_.packets_sent); }

 private:
  void update_adaptive_batch(const AckMessage& ack);

  TransferSpec spec_;
  SenderConfig config_;
  fobs::util::Bitmap acked_view_;
  std::unique_ptr<SelectionPolicy> policy_;
  std::vector<std::uint32_t> send_counts_;
  int batch_size_;
  bool completion_received_ = false;
  // Adaptive batch bookkeeping.
  std::uint64_t last_ack_no_ = 0;
  std::int64_t last_total_received_ = 0;
  // Stall-detection bookkeeping.
  std::int64_t progress_at_last_interval_ = 0;
  int empty_intervals_ = 0;
  SenderStats stats_;
  telemetry::EventTracer* tracer_ = nullptr;
};

}  // namespace fobs::core

// Simulated TCP with Reno/NewReno congestion control, optional SACK,
// and optional window scaling ("Large Window Extensions", RFC 1323).
//
// Fidelity is scoped to the phenomena the paper measures:
//  * slow start / congestion avoidance / fast retransmit / fast recovery
//  * retransmission timeout with Karn's rule and exponential backoff
//  * delayed cumulative ACKs, dup-ACK counting
//  * receiver window advertisement capped at 64 KiB unless both ends
//    offer window scaling — the single biggest factor on the paper's
//    long-haul path (Table 1)
//  * SACK blocks and SACK-assisted retransmission
//
// Deliberate simplifications (documented in DESIGN.md): SYN/FIN are
// control messages outside the data sequence space, there is no
// timestamps option or PAWS, and payload bytes are abstract counts
// (application messages ride along explicitly via send_message).
#pragma once

#include <any>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "host/host.h"
#include "net/rtt_estimator.h"
#include "net/seq_range_set.h"
#include "sim/packet.h"
#include "sim/simulation.h"

namespace fobs::net {

using fobs::host::Host;
using fobs::sim::EventId;
using fobs::sim::NodeId;
using fobs::sim::Packet;
using fobs::sim::PortId;
using fobs::util::Duration;
using fobs::util::TimePoint;

using Seq = std::int64_t;

/// Application message riding on the byte stream (see send_message).
struct TcpAppMessage {
  Seq end_offset = 0;  ///< stream offset just past the message's last byte
  std::shared_ptr<const std::any> payload;
};

/// The simulated wire format.
struct TcpSegment {
  enum Flag : std::uint32_t {
    kSyn = 1u << 0,
    kAck = 1u << 1,
    kFin = 1u << 2,
    kFinAck = 1u << 3,
  };

  std::uint32_t flags = 0;
  Seq seq = 0;            ///< first payload byte (data segments)
  Seq payload_bytes = 0;  ///< data bytes carried
  Seq ack = 0;            ///< cumulative ack (next expected byte)
  Seq wnd = 0;            ///< advertised receive window, bytes (descaled)
  int wscale_offer = -1;  ///< on SYN/SYN-ACK: window-scale shift, -1 = none
  bool sack_permitted = false;  ///< on SYN/SYN-ACK
  std::vector<SeqRangeSet::Range> sack;  ///< up to kMaxSackBlocks
  std::vector<TcpAppMessage> messages;   ///< app messages ending in this segment
};

inline constexpr int kMaxSackBlocks = 3;

/// Fixed stack parameters (classic values; no caller varies them).
inline constexpr std::int64_t kMss = 1460;
inline constexpr int kInitialCwndSegments = 2;
inline constexpr int kDupackThreshold = 3;
/// Delayed ACK: ack every kDelayedAckEvery full segments or after the
/// timeout, whichever first.
inline constexpr int kDelayedAckEvery = 2;
inline constexpr Duration kDelayedAckTimeout = Duration::milliseconds(100);
inline constexpr Duration kSynRetryTimeout = Duration::seconds(1);
inline constexpr int kMaxSynRetries = 5;

struct TcpConfig {
  std::int64_t recv_buffer_bytes = 1 << 20;
  /// Large Window Extensions: offer/accept window scaling. Without it the
  /// advertised window is capped at 65535 bytes.
  bool window_scaling = true;
  bool sack_enabled = true;
  /// NewReno partial-ack handling (vs plain Reno) during fast recovery.
  bool newreno = true;
  /// Fast recovery (Reno-family). When false the stack behaves like
  /// Tahoe: three dup acks retransmit and collapse cwnd to one segment.
  bool fast_recovery = true;
};

struct TcpStats {
  std::uint64_t segments_sent = 0;
  std::uint64_t data_segments_sent = 0;
  std::uint64_t retransmissions = 0;
  std::uint64_t fast_retransmits = 0;
  std::uint64_t timeouts = 0;
  std::uint64_t dup_acks_received = 0;
  std::uint64_t acks_sent = 0;
  std::int64_t bytes_sent = 0;  ///< data bytes incl. retransmits
};

enum class TcpState {
  kClosed,
  kSynSent,
  kSynReceived,
  kEstablished,
  kFinSent,
  kDone,  ///< FIN acked or peer closed
};

/// One endpoint of a simulated TCP connection.
class TcpConnection final : public fobs::host::PortHandler {
 public:
  /// Client-side constructor: binds an ephemeral (or given) port.
  /// Call `connect` to start the handshake.
  TcpConnection(Host& host, TcpConfig config, PortId local_port = 0);
  ~TcpConnection() override;

  TcpConnection(const TcpConnection&) = delete;
  TcpConnection& operator=(const TcpConnection&) = delete;

  /// Starts the three-way handshake toward a TcpListener.
  void connect(NodeId dst, PortId dst_port);

  [[nodiscard]] TcpState state() const { return state_; }
  [[nodiscard]] bool established() const { return state_ == TcpState::kEstablished || state_ == TcpState::kFinSent || state_ == TcpState::kDone; }
  [[nodiscard]] PortId local_port() const { return local_port_; }

  /// Appends `n` abstract bytes to the send stream.
  void offer_bytes(Seq n);
  /// Appends a framed application message of `bytes` stream bytes; the
  /// payload is delivered in order at the peer via on_message.
  void send_message(Seq bytes, std::any payload);
  /// Sends FIN once all offered bytes are acked (deferred automatically).
  void close();
  /// Ends the connection at once: every timer is cancelled, bytes never
  /// sent are dropped, and as kClosed it sends nothing more and ignores
  /// what still arrives.
  void abort();

  [[nodiscard]] Seq offered_bytes() const { return app_limit_; }
  [[nodiscard]] Seq acked_bytes() const { return snd_una_; }
  [[nodiscard]] Seq delivered_bytes() const { return rcv_nxt_; }
  [[nodiscard]] bool send_complete() const {
    return app_limit_ > 0 && snd_una_ >= app_limit_;
  }

  void set_on_connected(std::function<void()> cb) { on_connected_ = std::move(cb); }
  /// Called with the cumulative in-order byte count at the receiver.
  void set_on_delivered(std::function<void(Seq)> cb) { on_delivered_ = std::move(cb); }
  /// Called once per in-order application message.
  void set_on_message(std::function<void(const std::any&)> cb) { on_message_ = std::move(cb); }
  void set_on_send_complete(std::function<void()> cb) { on_send_complete_ = std::move(cb); }
  void set_on_peer_closed(std::function<void()> cb) { on_peer_closed_ = std::move(cb); }

  [[nodiscard]] const TcpStats& stats() const { return stats_; }
  [[nodiscard]] const TcpConfig& config() const { return config_; }

  void handle_packet(Packet packet) override;

 private:
  friend class TcpListener;

  /// Server-side: adopt a SYN received by a listener.
  void accept_syn(NodeId peer, PortId peer_port, const TcpSegment& syn);

  /// The handshake completed with `seg`: open with the initial windows.
  void establish(const TcpSegment& seg);
  void on_segment(const TcpSegment& seg);
  void on_ack(const TcpSegment& seg);
  void on_data(const TcpSegment& seg);
  void handle_dupack();
  void enter_fast_recovery();
  /// SACK-based recovery transmission: spends `recovery_credit_` on
  /// retransmitting unsacked holes (then new data), which repairs many
  /// losses per RTT instead of NewReno's one-per-partial-ack.
  void pump_recovery();
  void on_rto();

  /// Sends as much new data as windows allow; schedules a wakeup when
  /// blocked on the NIC buffer.
  void pump_send();
  /// One-shot wait for NIC writability that resumes the right pump.
  void wait_writable();
  void send_data_segment(Seq seq, Seq len, bool is_retransmission);
  /// Picks the best segment to retransmit during recovery (first
  /// unsacked hole with SACK, snd_una without).
  [[nodiscard]] std::optional<Seq> next_retransmit_seq() const;
  void maybe_send_fin();

  void send_control(std::uint32_t flags);
  void send_ack_now();
  void schedule_delayed_ack();
  void emit_segment(TcpSegment seg, Seq payload_bytes);
  [[nodiscard]] Seq advertised_window() const;
  [[nodiscard]] Seq send_window() const;
  [[nodiscard]] Seq flight_size() const { return snd_nxt_ - snd_una_; }

  void arm_rtx_timer();
  /// Cancels `timer` if it is armed and marks it unarmed.
  void cancel_timer(EventId& timer);
  void arm_syn_timer();

  [[nodiscard]] fobs::sim::Simulation& sim();

  Host& host_;
  TcpConfig config_;
  PortId local_port_ = 0;
  NodeId peer_node_ = fobs::sim::kInvalidNodeId;
  PortId peer_port_ = 0;
  TcpState state_ = TcpState::kClosed;

  // --- options both ends offered ---
  bool use_window_scaling_ = false;
  bool use_sack_ = false;
  int syn_retries_ = 0;
  EventId syn_timer_ = fobs::sim::kInvalidEventId;

  // --- sender state ---
  Seq app_limit_ = 0;  ///< total bytes the app has offered
  Seq snd_una_ = 0;
  Seq snd_nxt_ = 0;
  Seq snd_max_ = 0;  ///< highest byte ever sent (snd_nxt rolls back on RTO)
  double cwnd_ = 0;
  double ssthresh_ = 0;
  Seq peer_wnd_ = 65535;
  int dup_acks_ = 0;
  bool in_recovery_ = false;
  Seq recover_ = 0;  ///< NewReno: highest seq sent when loss detected
  Seq recovery_rtx_hint_ = 0;  ///< SACK: next hole to consider resending
  Seq recovery_credit_ = 0;    ///< bytes we may (re)send during recovery
  SeqRangeSet sacked_;
  RttEstimator rtt_;
  EventId rtx_timer_ = fobs::sim::kInvalidEventId;
  /// Retries pump_send while a zero window with nothing in flight
  /// blocks it (a crude persist timer).
  EventId persist_timer_ = fobs::sim::kInvalidEventId;
  // One outstanding RTT sample (Karn).
  bool sample_pending_ = false;
  Seq sample_seq_begin_ = 0;
  Seq sample_seq_end_ = 0;
  TimePoint sample_sent_at_;
  bool fin_pending_ = false;
  bool fin_sent_ = false;
  bool fin_acked_ = false;
  bool send_complete_notified_ = false;
  bool waiting_writable_ = false;
  std::map<Seq, std::shared_ptr<const std::any>> outgoing_messages_;  ///< by end offset

  // --- receiver state ---
  Seq rcv_nxt_ = 0;
  SeqRangeSet ooo_;
  std::size_t sack_rotate_ = 0;  ///< rotates reported SACK blocks
  int segs_since_ack_ = 0;
  EventId delack_timer_ = fobs::sim::kInvalidEventId;
  std::map<Seq, std::shared_ptr<const std::any>> incoming_messages_;  ///< by end offset
  Seq delivered_msg_end_ = 0;  ///< end offset of the last delivered message
  bool peer_fin_seen_ = false;

  std::function<void()> on_connected_;
  std::function<void(Seq)> on_delivered_;
  std::function<void(const std::any&)> on_message_;
  std::function<void()> on_send_complete_;
  std::function<void()> on_peer_closed_;

  TcpStats stats_;
};

/// Passive endpoint: accepts SYNs on a well-known port and spawns a
/// server-side TcpConnection per client. The server connection answers
/// from its own ephemeral port; the client adopts that port from the
/// SYN-ACK (a simulator simplification of 4-tuple demux).
class TcpListener final : public fobs::host::PortHandler {
 public:
  using AcceptCallback = std::function<void(std::unique_ptr<TcpConnection>)>;

  TcpListener(Host& host, PortId port, TcpConfig config, AcceptCallback on_accept);
  ~TcpListener() override;

  TcpListener(const TcpListener&) = delete;
  TcpListener& operator=(const TcpListener&) = delete;

  [[nodiscard]] PortId port() const { return port_; }

  void handle_packet(Packet packet) override;

 private:
  Host& host_;
  PortId port_;
  TcpConfig config_;
  AcceptCallback on_accept_;
};

}  // namespace fobs::net

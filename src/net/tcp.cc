#include "net/tcp.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "common/log.h"

namespace fobs::net {

namespace {
constexpr std::int64_t kSackBlockWireBytes = 8;
constexpr Seq kMaxWindowNoScale = 65535;
}  // namespace

// ---------------------------------------------------------------------------
// Construction / teardown
// ---------------------------------------------------------------------------

TcpConnection::TcpConnection(Host& host, TcpConfig config, PortId local_port)
    : host_(host),
      config_(config),
      local_port_(local_port == 0 ? host.allocate_port() : local_port) {
  host_.bind(local_port_, this);
}

TcpConnection::~TcpConnection() {
  abort();
  host_.withdraw_writable(this);
  host_.unbind(local_port_);
}

void TcpConnection::abort() {
  for (EventId* timer : {&rtx_timer_, &delack_timer_, &syn_timer_, &persist_timer_}) {
    cancel_timer(*timer);
  }
  app_limit_ = std::min(app_limit_, snd_max_);
  outgoing_messages_.clear();
  in_recovery_ = false;
  state_ = TcpState::kClosed;
}

fobs::sim::Simulation& TcpConnection::sim() { return host_.network().sim(); }

// ---------------------------------------------------------------------------
// Handshake
// ---------------------------------------------------------------------------

void TcpConnection::connect(NodeId dst, PortId dst_port) {
  assert(state_ == TcpState::kClosed);
  peer_node_ = dst;
  peer_port_ = dst_port;
  state_ = TcpState::kSynSent;
  send_control(TcpSegment::kSyn);
  arm_syn_timer();
}

void TcpConnection::accept_syn(NodeId peer, PortId peer_port, const TcpSegment& syn) {
  assert(state_ == TcpState::kClosed);
  peer_node_ = peer;
  peer_port_ = peer_port;
  // SYN options: an option is on only when both sides offer it.
  use_window_scaling_ = config_.window_scaling && syn.wscale_offer >= 0;
  use_sack_ = config_.sack_enabled && syn.sack_permitted;
  state_ = TcpState::kSynReceived;
  send_control(TcpSegment::kSyn | TcpSegment::kAck);
  arm_syn_timer();
}

void TcpConnection::arm_syn_timer() {
  cancel_timer(syn_timer_);
  syn_timer_ = sim().schedule_in(kSynRetryTimeout, [this] {
    syn_timer_ = fobs::sim::kInvalidEventId;
    if (state_ != TcpState::kSynSent && state_ != TcpState::kSynReceived) return;
    if (++syn_retries_ > kMaxSynRetries) {
      FOBS_WARN("tcp", "handshake gave up after retries");
      state_ = TcpState::kClosed;
      return;
    }
    send_control(state_ == TcpState::kSynSent ? TcpSegment::kSyn
                                              : (TcpSegment::kSyn | TcpSegment::kAck));
    arm_syn_timer();
  });
}

// ---------------------------------------------------------------------------
// Application API
// ---------------------------------------------------------------------------

void TcpConnection::offer_bytes(Seq n) {
  assert(n >= 0);
  app_limit_ += n;
  pump_send();
}

void TcpConnection::send_message(Seq bytes, std::any payload) {
  assert(bytes > 0);
  const Seq end = app_limit_ + bytes;
  outgoing_messages_[end] = std::make_shared<const std::any>(std::move(payload));
  offer_bytes(bytes);
}

void TcpConnection::close() {
  fin_pending_ = true;
  maybe_send_fin();
}

void TcpConnection::maybe_send_fin() {
  if (!fin_pending_ || fin_sent_) return;
  if (snd_una_ < app_limit_) return;  // wait until all data acked
  if (state_ != TcpState::kEstablished) return;
  fin_sent_ = true;
  state_ = TcpState::kFinSent;
  send_control(TcpSegment::kFin | TcpSegment::kAck);
  arm_rtx_timer();
}

// ---------------------------------------------------------------------------
// Segment emission
// ---------------------------------------------------------------------------

Seq TcpConnection::advertised_window() const {
  // The receive buffer covers the sequence span [rcv_nxt, rcv_nxt+buf):
  // out-of-order data occupies slots up to its highest sequence, and the
  // holes below it stay reserved (so a retransmission that fills a hole
  // is always acceptable — computing this from the ooo byte *count*
  // would deadlock a full buffer on a missing segment).
  const Seq span = std::max(ooo_.max_end(), rcv_nxt_) - rcv_nxt_;
  Seq avail = config_.recv_buffer_bytes - span;
  if (avail < 0) avail = 0;
  if (!use_window_scaling_) return std::min(avail, kMaxWindowNoScale);
  return avail;
}

Seq TcpConnection::send_window() const {
  const auto cw = static_cast<Seq>(cwnd_);
  return std::min(cw, peer_wnd_);
}

void TcpConnection::emit_segment(TcpSegment seg, Seq payload_bytes) {
  Packet pkt;
  pkt.dst = peer_node_;
  pkt.dst_port = peer_port_;
  pkt.src_port = local_port_;
  pkt.size_bytes = payload_bytes + fobs::sim::kTcpIpOverheadBytes +
                   static_cast<std::int64_t>(seg.sack.size()) * kSackBlockWireBytes;
  pkt.payload = std::move(seg);
  host_.send(std::move(pkt));
  ++stats_.segments_sent;
}

void TcpConnection::send_control(std::uint32_t flags) {
  TcpSegment seg;
  seg.flags = flags;
  seg.ack = rcv_nxt_;
  seg.wnd = advertised_window();
  seg.seq = snd_nxt_;
  if (flags & TcpSegment::kSyn) {
    if (config_.window_scaling) {
      int shift = 0;
      while ((config_.recv_buffer_bytes >> shift) > kMaxWindowNoScale && shift < 14) ++shift;
      seg.wscale_offer = shift;
    }
    seg.sack_permitted = config_.sack_enabled;
  }
  emit_segment(std::move(seg), 0);
}

void TcpConnection::send_ack_now() {
  cancel_timer(delack_timer_);
  segs_since_ack_ = 0;
  TcpSegment seg;
  seg.flags = TcpSegment::kAck;
  seg.seq = snd_nxt_;
  seg.ack = rcv_nxt_;
  seg.wnd = advertised_window();
  if (use_sack_ && !ooo_.empty()) {
    // Rotate which blocks are reported so that, across successive ACKs,
    // the sender's scoreboard learns about *every* out-of-order range,
    // not only the lowest three (RFC 2018 achieves the same coverage by
    // leading with the most recent block).
    std::vector<SeqRangeSet::Range> blocks;
    blocks.reserve(ooo_.range_count());
    for (const auto& [b, e] : ooo_) {
      if (e <= rcv_nxt_) continue;
      blocks.push_back({std::max(b, rcv_nxt_), e});
    }
    if (!blocks.empty()) {
      const std::size_t n = blocks.size();
      const std::size_t take = std::min<std::size_t>(kMaxSackBlocks, n);
      if (sack_rotate_ >= n) sack_rotate_ = 0;
      for (std::size_t i = 0; i < take; ++i) {
        seg.sack.push_back(blocks[(sack_rotate_ + i) % n]);
      }
      sack_rotate_ = (sack_rotate_ + take) % n;
    }
  }
  ++stats_.acks_sent;
  emit_segment(std::move(seg), 0);
}

void TcpConnection::schedule_delayed_ack() {
  if (delack_timer_ != fobs::sim::kInvalidEventId) return;
  delack_timer_ = sim().schedule_in(kDelayedAckTimeout, [this] {
    delack_timer_ = fobs::sim::kInvalidEventId;
    send_ack_now();
  });
}

// ---------------------------------------------------------------------------
// Sending data
// ---------------------------------------------------------------------------

void TcpConnection::wait_writable() {
  if (waiting_writable_) return;
  waiting_writable_ = true;
  host_.notify_writable(this, [this] {
    waiting_writable_ = false;
    // Resume whichever machinery applies *now* — the connection may
    // have entered or left recovery while the wait was pending, and a
    // callback that only resumed its original caller would strand the
    // connection with data to send and no timer armed.
    if (in_recovery_ && use_sack_) pump_recovery();
    pump_send();
  });
}

void TcpConnection::pump_send() {
  if (state_ != TcpState::kEstablished && state_ != TcpState::kFinSent) return;
  while (snd_nxt_ < app_limit_) {
    Seq wnd_edge;
    if (snd_nxt_ < snd_max_) {
      // Resending data the receiver already reserved window space for
      // (post-RTO go-back-N): only cwnd limits it — a zero advertised
      // window must not block repairing the hole that would reopen it.
      wnd_edge = std::min(
          snd_max_, snd_una_ + std::max<Seq>(static_cast<Seq>(cwnd_), kMss));
    } else {
      wnd_edge = snd_una_ + send_window();
    }
    if (snd_nxt_ >= wnd_edge) {
      // Window closed. If nothing is in flight we must not deadlock:
      // retry after the RTO (a crude persist timer), one retry at a time.
      if (flight_size() == 0 && send_window() == 0 &&
          persist_timer_ == fobs::sim::kInvalidEventId) {
        persist_timer_ = sim().schedule_in(rtt_.rto(), [this] {
          persist_timer_ = fobs::sim::kInvalidEventId;
          pump_send();
        });
      }
      break;
    }
    const Seq len = std::min({kMss, app_limit_ - snd_nxt_, wnd_edge - snd_nxt_});
    const std::int64_t wire = len + fobs::sim::kTcpIpOverheadBytes;
    if (!host_.can_send(wire)) {
      wait_writable();
      break;
    }
    send_data_segment(snd_nxt_, len, /*is_retransmission=*/false);
    snd_nxt_ += len;
  }
  if (flight_size() > 0 && rtx_timer_ == fobs::sim::kInvalidEventId) arm_rtx_timer();
  maybe_send_fin();
}

void TcpConnection::send_data_segment(Seq seq, Seq len, bool is_retransmission) {
  assert(len > 0);
  snd_max_ = std::max(snd_max_, seq + len);
  TcpSegment seg;
  seg.flags = TcpSegment::kAck;
  seg.seq = seq;
  seg.payload_bytes = len;
  seg.ack = rcv_nxt_;
  seg.wnd = advertised_window();
  // Attach application messages whose final byte rides in this segment.
  auto it = outgoing_messages_.upper_bound(seq);
  while (it != outgoing_messages_.end() && it->first <= seq + len) {
    seg.messages.push_back(TcpAppMessage{it->first, it->second});
    ++it;
  }
  if (is_retransmission) {
    ++stats_.retransmissions;
    // Karn: a retransmission overlapping the timed segment poisons the
    // outstanding RTT sample.
    if (sample_pending_ && seq < sample_seq_end_ && seq + len > sample_seq_begin_) {
      sample_pending_ = false;
    }
  } else if (!sample_pending_) {
    sample_pending_ = true;
    sample_seq_begin_ = seq;
    sample_seq_end_ = seq + len;
    sample_sent_at_ = sim().now();
  }
  ++stats_.data_segments_sent;
  stats_.bytes_sent += len;
  emit_segment(std::move(seg), len);
}

std::optional<Seq> TcpConnection::next_retransmit_seq() const {
  if (!use_sack_) return snd_una_;
  const Seq hole = sacked_.first_missing(snd_una_, snd_nxt_);
  if (hole >= snd_nxt_) return std::nullopt;  // everything sacked
  return hole;
}

// ---------------------------------------------------------------------------
// Timers
// ---------------------------------------------------------------------------

void TcpConnection::arm_rtx_timer() {
  cancel_timer(rtx_timer_);
  rtx_timer_ = sim().schedule_in(rtt_.rto(), [this] {
    rtx_timer_ = fobs::sim::kInvalidEventId;
    on_rto();
  });
}

void TcpConnection::cancel_timer(EventId& timer) {
  if (timer != fobs::sim::kInvalidEventId) sim().cancel(timer);
  timer = fobs::sim::kInvalidEventId;
}

void TcpConnection::on_rto() {
  if (flight_size() == 0 && !(fin_sent_ && !fin_acked_)) return;
  ++stats_.timeouts;
  rtt_.backoff();
  sample_pending_ = false;
  const Seq flight = flight_size();
  ssthresh_ = std::max(static_cast<double>(flight) / 2.0,
                       2.0 * static_cast<double>(kMss));
  cwnd_ = static_cast<double>(kMss);
  dup_acks_ = 0;
  in_recovery_ = false;
  recovery_credit_ = 0;
  sacked_.clear();
  if (fin_sent_ && !fin_acked_ && flight == 0) {
    send_control(TcpSegment::kFin | TcpSegment::kAck);
  } else {
    // Go-back-N from the first unacked byte; the ack clock will regrow
    // cwnd through slow start.
    snd_nxt_ = snd_una_;
    pump_send();
  }
  arm_rtx_timer();
}

// ---------------------------------------------------------------------------
// Receiving
// ---------------------------------------------------------------------------

void TcpConnection::handle_packet(Packet packet) {
  if (peer_node_ != fobs::sim::kInvalidNodeId && packet.src != peer_node_) return;
  const auto* seg = std::any_cast<TcpSegment>(&packet.payload);
  if (seg == nullptr) return;
  // Client side: adopt the server's ephemeral data port from SYN-ACK.
  if (state_ == TcpState::kSynSent && (seg->flags & TcpSegment::kSyn) &&
      (seg->flags & TcpSegment::kAck)) {
    peer_port_ = packet.src_port;
  }
  on_segment(*seg);
}

void TcpConnection::establish(const TcpSegment& seg) {
  cancel_timer(syn_timer_);
  state_ = TcpState::kEstablished;
  cwnd_ = static_cast<double>(kInitialCwndSegments * kMss);
  ssthresh_ = 1e18;
  peer_wnd_ = seg.wnd;
}

void TcpConnection::on_segment(const TcpSegment& seg) {
  if (state_ == TcpState::kSynSent) {
    if ((seg.flags & TcpSegment::kSyn) && (seg.flags & TcpSegment::kAck)) {
      use_window_scaling_ = config_.window_scaling && seg.wscale_offer >= 0;
      use_sack_ = config_.sack_enabled && seg.sack_permitted;
      establish(seg);
      send_ack_now();
      if (on_connected_) on_connected_();
      pump_send();
    }
    return;
  }
  if (state_ == TcpState::kSynReceived) {
    if ((seg.flags & TcpSegment::kAck) && !(seg.flags & TcpSegment::kSyn)) {
      establish(seg);
      if (on_connected_) on_connected_();
      // fall through: the establishing segment may carry data/ack info
    } else {
      return;  // e.g. duplicate SYN — SYN-ACK retransmit timer handles it
    }
  }
  if (state_ == TcpState::kClosed) return;

  if (seg.flags & TcpSegment::kFinAck) {
    if (fin_sent_ && !fin_acked_) {
      fin_acked_ = true;
      state_ = TcpState::kDone;
      cancel_timer(rtx_timer_);
    }
    return;
  }
  if (seg.flags & TcpSegment::kFin) {
    // Ack the FIN unconditionally; deliver the close upcall once.
    TcpSegment ack;
    ack.flags = TcpSegment::kFinAck;
    ack.ack = rcv_nxt_;
    ack.wnd = advertised_window();
    emit_segment(std::move(ack), 0);
    if (!peer_fin_seen_) {
      peer_fin_seen_ = true;
      if (on_peer_closed_) on_peer_closed_();
    }
    return;
  }

  if (seg.payload_bytes > 0) on_data(seg);
  if (seg.flags & TcpSegment::kAck) on_ack(seg);
}

void TcpConnection::on_data(const TcpSegment& seg) {
  const Seq b = seg.seq;
  const Seq e = seg.seq + seg.payload_bytes;
  // Stash any application messages not yet delivered; duplicate stashes
  // from retransmissions overwrite harmlessly.
  for (const auto& msg : seg.messages) {
    if (msg.end_offset > delivered_msg_end_) {
      incoming_messages_[msg.end_offset] = msg.payload;
    }
  }
  if (e <= rcv_nxt_) {
    send_ack_now();  // stale retransmission; re-ack immediately
    return;
  }
  const bool in_order = b <= rcv_nxt_;
  ooo_.insert(std::max(b, rcv_nxt_), e);
  if (in_order) {
    const auto frontier = ooo_.contiguous_end_from(rcv_nxt_);
    assert(frontier.has_value());
    rcv_nxt_ = *frontier;
    ooo_.erase_below(rcv_nxt_);
    // Deliver in-order application messages.
    auto it = incoming_messages_.begin();
    while (it != incoming_messages_.end() && it->first <= rcv_nxt_) {
      if (on_message_) on_message_(*it->second);
      delivered_msg_end_ = it->first;
      it = incoming_messages_.erase(it);
    }
    if (on_delivered_) on_delivered_(rcv_nxt_);
    ++segs_since_ack_;
    if (segs_since_ack_ >= kDelayedAckEvery || !ooo_.empty()) {
      send_ack_now();
    } else {
      schedule_delayed_ack();
    }
  } else {
    // Out of order: immediate duplicate ack (fast-retransmit trigger).
    send_ack_now();
  }
}

void TcpConnection::on_ack(const TcpSegment& seg) {
  peer_wnd_ = seg.wnd;
  if (use_sack_) {
    for (const auto& blk : seg.sack) {
      if (blk.end > snd_una_) sacked_.insert(std::max(blk.begin, snd_una_), blk.end);
    }
  }

  if (seg.ack > snd_una_) {
    const Seq newly = seg.ack - snd_una_;
    // RTT sample (Karn-safe: invalidated on retransmit overlap).
    if (sample_pending_ && seg.ack >= sample_seq_end_) {
      rtt_.add_sample(sim().now() - sample_sent_at_);
      sample_pending_ = false;
    }
    snd_una_ = seg.ack;
    // After an RTO rollback an ack for pre-rollback data can overtake
    // snd_nxt; sending below snd_una would be pure waste (and a stall,
    // since nothing re-triggers the pump).
    snd_nxt_ = std::max(snd_nxt_, snd_una_);
    sacked_.erase_below(snd_una_);
    // Drop fully-acked outgoing messages.
    auto it = outgoing_messages_.begin();
    while (it != outgoing_messages_.end() && it->first <= snd_una_) {
      it = outgoing_messages_.erase(it);
    }

    if (in_recovery_) {
      if (seg.ack >= recover_) {
        // Full ack: leave recovery, deflate to ssthresh.
        in_recovery_ = false;
        dup_acks_ = 0;
        recovery_credit_ = 0;
        cwnd_ = ssthresh_;
      } else if (use_sack_) {
        // SACK recovery: the partial ack means segments left the
        // network; convert them into send credit and fill more holes.
        recovery_rtx_hint_ = std::max(recovery_rtx_hint_, snd_una_);
        recovery_credit_ += newly;
        pump_recovery();
        arm_rtx_timer();
      } else if (config_.newreno) {
        // Partial ack: the next hole is also lost; retransmit it and
        // deflate by the amount acked (NewReno).
        const auto seq = next_retransmit_seq();
        if (seq && *seq < snd_nxt_) {
          const Seq len = std::min(kMss, snd_nxt_ - *seq);
          send_data_segment(*seq, len, /*is_retransmission=*/true);
        }
        cwnd_ = std::max(cwnd_ - static_cast<double>(newly) + kMss,
                         static_cast<double>(kMss));
        arm_rtx_timer();
      } else {
        // Plain Reno: first new ack terminates recovery.
        in_recovery_ = false;
        dup_acks_ = 0;
        cwnd_ = ssthresh_;
      }
    } else {
      dup_acks_ = 0;
      if (cwnd_ < ssthresh_) {
        cwnd_ += static_cast<double>(std::min(newly, kMss));  // slow start
      } else {
        cwnd_ += static_cast<double>(kMss) * static_cast<double>(kMss) / cwnd_;
      }
    }

    if (flight_size() > 0 || (fin_sent_ && !fin_acked_)) {
      arm_rtx_timer();
    } else {
      cancel_timer(rtx_timer_);
    }

    if (snd_una_ >= app_limit_ && app_limit_ > 0 && !send_complete_notified_) {
      send_complete_notified_ = true;
      if (on_send_complete_) on_send_complete_();
    }
    pump_send();
    return;
  }

  // Duplicate ack?
  if (seg.ack == snd_una_ && flight_size() > 0 && seg.payload_bytes == 0) {
    ++stats_.dup_acks_received;
    handle_dupack();
  }
}

void TcpConnection::handle_dupack() {
  ++dup_acks_;
  if (in_recovery_) {
    if (use_sack_) {
      // Each dup ack means one segment left the network: earn one MSS
      // of credit and keep repairing holes.
      recovery_credit_ += kMss;
      pump_recovery();
    } else {
      // Reno/NewReno inflation: the window slides open for new data.
      cwnd_ += static_cast<double>(kMss);
      pump_send();
    }
    return;
  }
  if (dup_acks_ >= kDupackThreshold) enter_fast_recovery();
}

void TcpConnection::enter_fast_recovery() {
  ++stats_.fast_retransmits;
  const Seq flight = flight_size();
  ssthresh_ = std::max(static_cast<double>(flight) / 2.0,
                       2.0 * static_cast<double>(kMss));
  if (!config_.fast_recovery) {
    // Tahoe: retransmit and restart from slow start; no recovery state.
    const Seq len = std::min(kMss, snd_nxt_ - snd_una_);
    if (len > 0) send_data_segment(snd_una_, len, /*is_retransmission=*/true);
    cwnd_ = static_cast<double>(kMss);
    dup_acks_ = 0;
    arm_rtx_timer();
    return;
  }
  recover_ = snd_nxt_;
  in_recovery_ = true;
  recovery_rtx_hint_ = snd_una_;
  if (use_sack_) {
    recovery_credit_ = 3 * kMss;
    pump_recovery();
  } else {
    const Seq len = std::min(kMss, snd_nxt_ - snd_una_);
    if (len > 0) send_data_segment(snd_una_, len, /*is_retransmission=*/true);
    cwnd_ = ssthresh_ + 3.0 * static_cast<double>(kMss);
  }
  arm_rtx_timer();
}

void TcpConnection::pump_recovery() {
  // Credit-based loss repair (in the spirit of RFC 3517 / rate halving):
  // every signal that a segment left the network (dup ack, partial ack,
  // new SACK information) grants credit; credit is spent on the first
  // unsacked hole above `recovery_rtx_hint_`, falling back to new data
  // when every hole has been retransmitted once this recovery.
  while (in_recovery_ && recovery_credit_ >= kMss) {
    Seq seq = sacked_.first_missing(std::max(recovery_rtx_hint_, snd_una_), snd_nxt_);
    bool retransmission = true;
    // IsLost heuristic (RFC 3517): only treat the hole as lost when at
    // least kDupackThreshold segments above it have been SACKed;
    // otherwise the "hole" is just data still in flight.
    if (seq < snd_nxt_ &&
        sacked_.max_end() < seq + (kDupackThreshold + 1) * kMss) {
      seq = snd_nxt_;
    }
    if (seq >= snd_nxt_) {
      // No hole left to retransmit: keep the ACK clock running with new
      // data, if the application has any.
      if (snd_nxt_ >= app_limit_) break;
      seq = snd_nxt_;
      retransmission = false;
    }
    const Seq limit = retransmission ? snd_nxt_ : app_limit_;
    const Seq len = std::min(kMss, limit - seq);
    if (len <= 0) break;
    const std::int64_t wire = len + fobs::sim::kTcpIpOverheadBytes;
    if (!host_.can_send(wire)) {
      wait_writable();
      return;
    }
    send_data_segment(seq, len, retransmission);
    recovery_credit_ -= len;
    if (retransmission) {
      recovery_rtx_hint_ = seq + len;
    } else {
      snd_nxt_ += len;
    }
  }
}

// ---------------------------------------------------------------------------
// Listener
// ---------------------------------------------------------------------------

TcpListener::TcpListener(Host& host, PortId port, TcpConfig config, AcceptCallback on_accept)
    : host_(host), port_(port), config_(config), on_accept_(std::move(on_accept)) {
  host_.bind(port_, this);
}

TcpListener::~TcpListener() { host_.unbind(port_); }

void TcpListener::handle_packet(Packet packet) {
  const auto* seg = std::any_cast<TcpSegment>(&packet.payload);
  if (seg == nullptr) return;
  if (!(seg->flags & TcpSegment::kSyn) || (seg->flags & TcpSegment::kAck)) return;
  auto conn = std::make_unique<TcpConnection>(host_, config_);
  conn->accept_syn(packet.src, packet.src_port, *seg);
  if (on_accept_) on_accept_(std::move(conn));
}

}  // namespace fobs::net

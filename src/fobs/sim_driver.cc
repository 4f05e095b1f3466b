#include "fobs/sim_driver.h"

#include <cassert>
#include <cstring>
#include <utility>

#include "common/log.h"
#include "telemetry/metrics.h"

namespace fobs::core {

using fobs::net::FaultDecision;

namespace {

// A transfer occupies four consecutive ports from its `port_base`.
constexpr PortId kDataPortOffset = 0;        ///< receiver side, UDP
constexpr PortId kAckPortOffset = 1;         ///< sender side, UDP
constexpr PortId kCompletionPortOffset = 2;  ///< sender side, TCP
constexpr PortId kTcpDataPortOffset = 3;     ///< receiver side, TCP (§7)

/// Counts one checksum-failing datagram in `count`, the
/// fobs.fault.corrupt_drops counter and a corrupt_drop event.
void count_corrupt_drop(std::int64_t& count, telemetry::EventTracer* tracer, std::int64_t seq) {
  ++count;
  telemetry::MetricsRegistry::global().counter("fobs.fault.corrupt_drops").inc();
  if (tracer != nullptr) tracer->record(telemetry::EventType::kCorruptDrop, seq, count);
}

}  // namespace

DriverEvents::~DriverEvents() {
  for (const auto id : ids_) sim_.cancel(id);
}

void DriverEvents::keep(fobs::sim::EventId id) {
  std::erase_if(ids_, [this](fobs::sim::EventId old) { return !sim_.pending(old); });
  ids_.push_back(id);
}

// ---------------------------------------------------------------------------
// SimSender
// ---------------------------------------------------------------------------

SimSender::SimSender(Host& host, TransferSpec spec, SenderConfig config,
                     AdaptiveConfig adaptive, const std::uint8_t* data, NodeId receiver_node,
                     PortId port_base, std::uint64_t transfer)
    : host_(host),
      events_(host.network().sim()),
      spec_(spec),
      core_(spec, config),
      data_(data),
      receiver_node_(receiver_node),
      port_base_(port_base),
      transfer_(transfer),
      data_out_(host),
      ack_in_(host, static_cast<PortId>(port_base + kAckPortOffset)),
      completion_listener_(host, static_cast<PortId>(port_base + kCompletionPortOffset),
                           fobs::net::TcpConfig{},
                           [this](std::unique_ptr<fobs::net::TcpConnection> conn) {
                             control_conn_ = std::move(conn);
                             control_conn_->set_on_message(
                                 [this](const std::any& m) { on_control_message(m); });
                           }),
      adaptive_(adaptive) {}

// Withdrawing here rather than in stop() keeps the waiter count, and so
// the host's wake rotation, unchanged for any transfer still running.
SimSender::~SimSender() { host_.withdraw_writable(this); }

void SimSender::start() {
  if (started_) return;
  started_ = true;
  if (auto* tracer = core_.tracer()) {
    tracer->set_clock([this] { return host_.network().sim().now().ns(); });
    tracer->record(telemetry::EventType::kTransferStart, -1, spec_.packet_count());
  }
  step();
}

void SimSender::on_control_message(const std::any& message) {
  const auto* signal = std::any_cast<CompletionSignal>(&message);
  if (signal == nullptr) return;
  if (signal->corrupted) {
    // A completion frame whose (modelled) checksum fails: discard it and
    // keep the transfer alive rather than trusting a garbled "done".
    telemetry::MetricsRegistry::global().counter("fobs.fault.corrupt_drops").inc();
    if (auto* tracer = core_.tracer()) {
      tracer->record(telemetry::EventType::kCorruptDrop, -1, 1);
    }
    return;
  }
  core_.on_completion_signal();
  if (!finished_) {
    finished_ = true;
    finished_at_ = host_.network().sim().now();
    FOBS_DEBUG("fobs.sender", "completion signal at " << finished_at_.seconds()
                                                      << "s, sent=" << packets_sent());
  }
}

void SimSender::step() {
  if (done() || mode_ != Mode::kUdp) return;
  Duration busy = Duration::zero();

  // Phase 2: look for (but do not block on) one acknowledgement.
  if (auto pkt = ack_in_.try_recv()) {
    const auto* payload = std::any_cast<AckPacketPayload>(&pkt->payload);
    if (payload != nullptr && payload->ack != nullptr) {
      busy += host_.cpu().recv_cost(fobs::util::DataSize::bytes(payload->ack->wire_bytes()));
      take_ack(*payload);
    }
  }

  // §7 first option: sustained congestion hands the transfer to TCP.
  if (adaptive_.congested()) {
    enter_fallback();
    return;
  }

  // Phase 1: batch-send without blocking.
  const int batch = core_.current_batch_size();
  const std::int64_t max_payload = spec_.packet_bytes + kDataHeaderBytes;
  int sent_in_batch = 0;
  for (int i = 0; i < batch; ++i) {
    if (core_.all_acked()) break;
    if (!data_out_.writable(max_payload)) {
      // Socket buffer full: wait for writability (the select() call),
      // then continue the loop. CPU consumed so far still elapses.
      host_.notify_writable(this, [this] {
        if (!step_scheduled_) {
          step_scheduled_ = true;
          events_.in(Duration::zero(), [this] {
            step_scheduled_ = false;
            step();
          });
        }
      });
      if (sent_in_batch > 0 && core_.tracer() != nullptr) {
        core_.tracer()->record(telemetry::EventType::kBatchSent, -1, sent_in_batch);
      }
      return;  // resume comes from the writability callback
    }
    const auto seq = core_.select_next();
    if (!seq) break;
    const std::int64_t len = spec_.payload_bytes(*seq);
    DataPacketPayload payload;
    payload.seq = *seq;
    payload.len = static_cast<std::int32_t>(len);
    payload.data = data_ != nullptr ? data_ + spec_.offset_of(*seq) : nullptr;
    payload.transfer = transfer_;
    // The injector models in-flight damage: a dropped packet is sent by
    // the core's accounting but never reaches the wire, a corrupted one
    // arrives with a failing checksum, a duplicated one arrives twice.
    const auto fate =
        faults_ != nullptr ? faults_->decide(fobs::net::FaultChannel::kData) : FaultDecision{};
    payload.corrupted = fate.corrupt;
    for (int copy = 0; copy < fate.copies; ++copy) {
      const bool ok =
          data_out_.send_to(receiver_node_, static_cast<PortId>(port_base_ + kDataPortOffset),
                            len + kDataHeaderBytes, payload);
      assert(ok);
      (void)ok;
    }
    ++sent_in_batch;
    busy += host_.cpu().send_cost(fobs::util::DataSize::bytes(len + kDataHeaderBytes));
  }
  if (sent_in_batch > 0 && core_.tracer() != nullptr) {
    core_.tracer()->record(telemetry::EventType::kBatchSent, -1, sent_in_batch);
  }

  if (core_.all_acked()) {
    // Everything acked in the local view: idle until either a (stray)
    // ACK or the completion signal arrives.
    ack_in_.set_rx_notify([this] { step(); });
    return;
  }

  // Reserve the CPU time this iteration consumed (co-located transfers
  // contend for the host's core), plus any pacing gap the adaptive-
  // greediness controller requests (idle, not CPU). A tiny floor keeps
  // the loop from spinning in zero simulated time.
  const auto resume =
      host_.reserve_cpu(std::max(busy, Duration::nanoseconds(500))) + adaptive_.gap();
  events_.at(resume, [this] { step(); });
}

// ---------------------------------------------------------------------------
// §7 TCP fallback: hand the remainder of the object to a congestion-
// controlled TCP channel; probe it and return to greedy UDP once the
// congestion has dissipated.
// ---------------------------------------------------------------------------

void SimSender::enter_fallback() {
  if (mode_ == Mode::kTcpFallback || done()) return;
  mode_ = Mode::kTcpFallback;
  ++fallback_episodes_;
  // Note: tcp_cursor_ is intentionally NOT reset — packets offered to
  // the TCP channel in an earlier episode are still reliably in flight
  // there, and re-offering them would be pure duplication.
  probe_clear_streak_ = 0;
  FOBS_INFO("fobs.sender", "entering TCP fallback (loss estimate "
                               << adaptive_.loss_estimate() << ")");
  if (auto* tracer = core_.tracer()) {
    tracer->record(telemetry::EventType::kFallbackEnter, -1, fallback_episodes_);
  }
  if (tcp_data_ == nullptr) {
    tcp_data_ = std::make_unique<fobs::net::TcpConnection>(host_, fobs::net::TcpConfig{});
    tcp_data_->connect(receiver_node_,
                       static_cast<PortId>(port_base_ + kTcpDataPortOffset));
  }
  probe_rtx_snapshot_ = tcp_data_->stats().retransmissions;
  pump_tcp();
  events_.in(kFallbackProbeInterval, [this] { probe_tick(); });
}

void SimSender::exit_fallback() {
  if (mode_ != Mode::kTcpFallback) return;
  mode_ = Mode::kUdp;
  adaptive_.reset();
  FOBS_INFO("fobs.sender", "congestion dissipated; resuming greedy UDP");
  if (auto* tracer = core_.tracer()) {
    tracer->record(telemetry::EventType::kFallbackExit, -1, packets_via_tcp_);
  }
  step();
}

void SimSender::pump_tcp() {
  if (done() || mode_ != Mode::kTcpFallback) return;
  if (tcp_data_->established()) {
    while (true) {
      const std::int64_t outstanding = tcp_data_->offered_bytes() - tcp_data_->acked_bytes();
      if (outstanding >= kFallbackWindowBytes) break;
      auto seq = core_.acked_view().first_clear(static_cast<std::size_t>(tcp_cursor_));
      if (!seq && outstanding == 0) {
        // One full pass done and nothing in flight: any remaining holes
        // mean the FOBS acks lag; rescan from the start.
        tcp_cursor_ = 0;
        seq = core_.acked_view().first_clear(0);
      }
      if (!seq) break;
      tcp_cursor_ = static_cast<PacketSeq>(*seq) + 1;
      const std::int64_t len = spec_.payload_bytes(static_cast<PacketSeq>(*seq));
      DataPacketPayload payload;
      payload.seq = static_cast<PacketSeq>(*seq);
      payload.len = static_cast<std::int32_t>(len);
      payload.data = data_ != nullptr ? data_ + spec_.offset_of(payload.seq) : nullptr;
      payload.transfer = transfer_;
      ++packets_via_tcp_;
      tcp_data_->send_message(len + kDataHeaderBytes, payload);
    }
  }
  // Fold in any FOBS acknowledgements that arrived meanwhile.
  while (auto pkt = ack_in_.try_recv()) {
    const auto* ack = std::any_cast<AckPacketPayload>(&pkt->payload);
    if (ack != nullptr && ack->ack != nullptr) take_ack(*ack);
  }
  events_.in(Duration::milliseconds(2), [this] { pump_tcp(); });
}

void SimSender::take_ack(const AckPacketPayload& ack) {
  if (ack.transfer != transfer_) return;  // an earlier transfer's straggler
  if (!ack.corrupted) {
    core_.on_ack(*ack.ack);
    // Feed the greediness controller with what happened since the last
    // ACK: how much was launched (on either channel) vs. how much the
    // receiver got.
    const std::int64_t sent = packets_sent();
    adaptive_.on_ack(sent - sent_at_last_ack_, ack.ack->total_received - received_at_last_ack_);
    sent_at_last_ack_ = sent;
    received_at_last_ack_ = ack.ack->total_received;
    return;
  }
  count_corrupt_drop(corrupt_dropped_, core_.tracer(), -1);
}

void SimSender::probe_tick() {
  if (done() || mode_ != Mode::kTcpFallback) return;
  const std::uint64_t rtx = tcp_data_->stats().retransmissions;
  if (rtx == probe_rtx_snapshot_) {
    ++probe_clear_streak_;
  } else {
    probe_clear_streak_ = 0;
  }
  probe_rtx_snapshot_ = rtx;
  if (probe_clear_streak_ >= kFallbackClearProbes) {
    exit_fallback();
    return;
  }
  events_.in(kFallbackProbeInterval, [this] { probe_tick(); });
}

// ---------------------------------------------------------------------------
// SimReceiver
// ---------------------------------------------------------------------------

SimReceiver::SimReceiver(Host& host, TransferSpec spec, ReceiverConfig config,
                         std::uint8_t* buffer, NodeId sender_node,
                         std::int64_t socket_buffer_bytes, PortId port_base,
                         std::uint64_t transfer)
    : host_(host),
      events_(host.network().sim()),
      spec_(spec),
      core_(spec, config),
      buffer_(buffer),
      sender_node_(sender_node),
      port_base_(port_base),
      transfer_(transfer),
      data_in_(host, static_cast<PortId>(port_base + kDataPortOffset), socket_buffer_bytes),
      ack_out_(host),
      control_conn_(host, fobs::net::TcpConfig{}),
      fallback_listener_(host, static_cast<PortId>(port_base + kTcpDataPortOffset),
                         fobs::net::TcpConfig{},
                         [this](std::unique_ptr<fobs::net::TcpConnection> conn) {
                           fallback_conn_ = std::move(conn);
                           fallback_conn_->set_on_message(
                               [this](const std::any& m) { on_tcp_data(m); });
                         }) {}

void SimReceiver::start() {
  if (started_) return;
  started_ = true;
  if (auto* tracer = core_.tracer()) {
    tracer->set_clock([this] { return host_.network().sim().now().ns(); });
    tracer->record(telemetry::EventType::kTransferStart, -1, spec_.packet_count());
  }
  control_conn_.connect(sender_node_,
                        static_cast<PortId>(port_base_ + kCompletionPortOffset));
  step();
}

Duration SimReceiver::process_packet(const DataPacketPayload& payload) {
  auto& sim = host_.network().sim();
  Duration busy =
      host_.cpu().recv_cost(fobs::util::DataSize::bytes(payload.len + kDataHeaderBytes));
  if (crashed_) return busy;
  if (faults_ != nullptr && faults_->crash_due()) {
    // Peer-crash point reached: this incarnation goes silent without
    // cleanup (no ACKs, no completion), exactly like a killed process.
    crashed_ = true;
    FOBS_INFO("fobs.receiver", "fault plan crash point reached; going silent");
    return busy;
  }
  if (payload.corrupted) {
    // Checksum-failing packet: reject before it can touch the object
    // buffer, count it, and rely on retransmission for the real bytes.
    count_corrupt_drop(corrupt_dropped_, core_.tracer(), payload.seq);
    return busy;
  }
  const auto result = core_.on_data_packet(payload.seq);
  if (result.newly_received && buffer_ != nullptr && payload.data != nullptr) {
    std::memcpy(buffer_ + spec_.offset_of(payload.seq), payload.data,
                static_cast<std::size_t>(payload.len));
  }
  if (result.ack_due) {
    // Building + sending the ACK stalls the poll loop — the Figure 1
    // mechanism. The ACK itself is best-effort UDP.
    busy += host_.cpu().ack_build;
    auto ack = std::make_shared<const AckMessage>(core_.make_ack());
    const std::int64_t bytes = ack->wire_bytes();
    AckPacketPayload ack_payload{std::move(ack)};
    ack_payload.transfer = transfer_;
    const auto fate =
        faults_ != nullptr ? faults_->decide(fobs::net::FaultChannel::kAck) : FaultDecision{};
    ack_payload.corrupted = fate.corrupt;
    bool wire_ok = fate.copies == 0;  // an injector-eaten ACK still "sent" fine
    for (int copy = 0; copy < fate.copies; ++copy) {
      if (ack_out_.send_to(sender_node_, static_cast<PortId>(port_base_ + kAckPortOffset),
                           bytes, ack_payload)) {
        wire_ok = true;
      }
    }
    if (wire_ok) {
      ++acks_sent_;
      busy += host_.cpu().send_cost(fobs::util::DataSize::bytes(bytes));
      if (auto* tracer = core_.tracer()) {
        tracer->record(telemetry::EventType::kAckSent,
                       static_cast<std::int64_t>(acks_sent_), bytes);
      }
    }
  }
  // Packets that overflowed the socket buffer while this loop was busy
  // (placing packets, building the ACK) are the paper's Figure 1 loss.
  if (auto* tracer = core_.tracer()) {
    const std::uint64_t drops = data_in_.stats().rx_overflow_drops;
    if (drops > traced_drops_) {
      tracer->record(telemetry::EventType::kDropWhileAcking, -1,
                     static_cast<std::int64_t>(drops - traced_drops_));
      traced_drops_ = drops;
    }
  }
  if (result.just_completed) {
    completed_at_ = sim.now();
    CompletionSignal signal{core_.stats().packets_received};
    const auto fate = faults_ != nullptr ? faults_->decide(fobs::net::FaultChannel::kControl)
                                         : FaultDecision{};
    signal.corrupted = fate.corrupt;
    if (fate.copies > 0) control_conn_.send_message(kCompletionSignalBytes, signal);
    FOBS_DEBUG("fobs.receiver", "object complete at " << completed_at_.seconds() << "s");
  }
  return busy;
}

void SimReceiver::on_tcp_data(const std::any& message) {
  // Fallback-channel arrivals are pushed by the TCP stack rather than
  // pulled by the poll loop; the CPU accounting is simplified to the
  // same per-packet cost without the socket-buffer overflow model (TCP
  // is flow-controlled, so the receiver can never be overrun).
  const auto* payload = std::any_cast<DataPacketPayload>(&message);
  if (payload == nullptr || stopped_) return;
  process_packet(*payload);
}

void SimReceiver::step() {
  if (crashed_ || stopped_) return;  // a crashed or stopped receiver never polls again
  auto pkt = data_in_.try_recv();
  if (!pkt) {
    data_in_.set_rx_notify([this] { step(); });
    return;
  }
  const auto* payload = std::any_cast<DataPacketPayload>(&pkt->payload);
  if (payload == nullptr || payload->transfer != transfer_) {
    // Not this transfer's data: a stray payload, or a straggler from an
    // earlier run on the same port.
    events_.in(Duration::nanoseconds(500), [this] { step(); });
    return;
  }
  const Duration busy = process_packet(*payload);
  events_.at(host_.reserve_cpu(std::max(busy, Duration::nanoseconds(500))),
             [this] { step(); });
}

}  // namespace fobs::core

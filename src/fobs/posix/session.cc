#include "fobs/posix/session.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/crc32.h"
#include "telemetry/metrics.h"

namespace fobs::posix::detail {

namespace {

constexpr std::uintptr_t kPageMask = fobs::core::kPageBytes - 1;
constexpr auto kWindowBytes = static_cast<std::int64_t>(fobs::core::kWriteBehindWindowBytes);

}  // namespace

using fobs::net::FaultChannel;
using fobs::telemetry::EventType;
using fobs::telemetry::MetricsRegistry;

FlowSession::FlowSession(int timeout_ms, const std::optional<fobs::net::FaultPlan>& plan,
                         fobs::telemetry::EventTracer* tracer, SessionTime start)
    : tracer_(tracer),
      start_(start),
      interval_(
          std::chrono::milliseconds(std::max(1, timeout_ms / fobs::core::kStallIntervals))),
      next_check_(start + interval_) {
  result_.status = TransferStatus::kRunning;
  if (plan) faults_.emplace(*plan);
}

template <typename Core>
bool FlowSession::budget_spent(SessionTime now, bool cancelled, Core& core, bool progressed) {
  if (cancelled) {
    end(TransferStatus::kCancelled, "cancelled");
    return true;
  }
  while (now >= next_check_) {
    streak_ = core.on_stall_interval();
    next_check_ += interval_;
  }
  if (streak_ < fobs::core::kStallIntervals) return false;
  if (progressed) {
    end(TransferStatus::kStalled, "stalled: no progress for the whole stall budget");
  } else {
    end(TransferStatus::kTimeout, "timeout");
  }
  MetricsRegistry::global().counter("fobs.fault.stalls").inc();
  return true;
}

template <typename Count>
void FlowSession::count_fault(Count& count, const char* metric, EventType event,
                              std::int64_t seq) {
  ++count;
  MetricsRegistry::global().counter(metric).inc();
  if (tracer_ != nullptr) tracer_->record(event, seq, count);
}

bool FlowSession::reconnected() {
  if (!std::exchange(control_ever_connected_, true)) return false;
  count_fault(result_.reconnects, "fobs.fault.reconnects", EventType::kReconnect);
  return true;
}

void FlowSession::close(SessionTime now, bool completed, std::int64_t object_bytes) {
  result_.elapsed_seconds = std::chrono::duration<double>(now - start_).count();
  if (completed) {
    result_.status = TransferStatus::kCompleted;
    result_.error.clear();
    result_.goodput_mbps = fobs::net::mbps(object_bytes, result_.elapsed_seconds);
  }
  if (!faults_) return;
  MetricsRegistry::global().counter("fobs.fault.injected").inc(faults_->total_injected());
}

SenderSession::SenderSession(const SenderOptions& options, const SendFlow& flow,
                             SessionTime start)
    : FlowSession(options.endpoint.timeout_ms, flow.fault_plan, flow.tracer, start),
      core_(flow.spec, options.core),
      stripe_(flow.stripe) {
  result_.packets_needed = flow.spec.packet_count();
  core_.set_tracer(flow.tracer);
}

bool SenderSession::tick(SessionTime now, bool cancelled) {
  return budget_spent(now, cancelled, core_,
                      control_ever_connected_ || core_.stats().packets_acked > 0);
}

bool SenderSession::on_control_connected() {
  control_buf_.clear();
  if (!reconnected()) return false;
  // The peer may have restarted from scratch: resend everything unless
  // the next state frame restores the view, and reject every ACK (the
  // dead incarnation's are poison) until that frame names the epoch.
  core_.on_peer_restart();
  epoch_ = 0;
  return true;
}

bool SenderSession::on_control_bytes(std::span<const std::uint8_t> bytes) {
  control_buf_.insert(control_buf_.end(), bytes.begin(), bytes.end());
  const std::int64_t packets = core_.spec().packet_count();
  // Take whole frames off the buffered stream until one is incomplete,
  // the completion arrives, or the stream desyncs.
  while (!completed()) {
    auto frame = next_control_frame(control_buf_.data(), control_buf_.size(), packets);
    control_buf_.erase(control_buf_.begin(),
                       control_buf_.begin() + static_cast<std::ptrdiff_t>(frame.consumed));
    if (frame.kind == ControlFrameKind::kNeedMore) break;
    if (frame.kind == ControlFrameKind::kDesync) return true;
    // A frame that is not this flow's, or fails its CRC, is ignored as
    // a whole: no epoch, bitmap or completion from it.
    if (!frame.state) continue;
    epoch_ = frame.state->epoch;
    if (!frame.state->bitmap.empty()) {
      core_.on_resume(frame.state->bitmap.data(), frame.state->bitmap.size(),
                      frame.state->packet_count);
      MetricsRegistry::global().counter("fobs.fault.resumes").inc();
    }
    if (frame.state->received_count == packets) core_.on_completion_signal();
  }
  return false;
}

void SenderSession::on_ack_datagram(std::span<const std::uint8_t> bytes) {
  const auto ack = decode_ack(bytes.data(), bytes.size());
  if (!ack) {
    count_fault(result_.corrupt_dropped, "fobs.fault.corrupt_drops", EventType::kCorruptDrop);
  } else if (epoch_ && ack->epoch != *epoch_) {
    ++result_.stale_acks_dropped;
    MetricsRegistry::global().counter("fobs.fault.stale_acks").inc();
  } else if (!completed()) {
    core_.on_ack(*ack);
  }
}

std::span<const fobs::net::DatagramView> SenderSession::next_batch() {
  const fobs::core::TransferSpec& spec = core_.spec();
  const int batch = core_.current_batch_size();
  headers_.resize(static_cast<std::size_t>(std::max(batch, 1)));
  views_.clear();
  corrupt_payloads_.clear();
  selected_ = 0;
  for (int i = 0; i < batch && !core_.all_acked(); ++i) {
    if (crash_due()) {
      crash_pending_ = true;  // what is already gathered still goes out
      break;
    }
    const auto seq = core_.select_next();
    if (!seq) break;
    const auto len = static_cast<std::size_t>(spec.payload_bytes(*seq));
    const std::uint8_t* payload = stripe_.data() + spec.offset_of(*seq);
    auto& header = headers_[static_cast<std::size_t>(selected_++)];
    encode_data_header(DataHeader{*seq}, header.data());
    seal_data_header(header.data(), payload, len);
    const auto fate = decide(FaultChannel::kData);
    if (fate.corrupt) {
      // Flip a byte of a private copy after the CRC was computed, so the
      // receiver's checksum test fails on exactly this datagram; the
      // mapped object itself stays pristine.
      auto& copy = corrupt_payloads_.emplace_back(payload, payload + len);
      copy[0] ^= 0xFF;
      payload = copy.data();
    }
    for (int copy = 0; copy < fate.copies; ++copy) {
      views_.push_back({std::span<const std::uint8_t>(header), {payload, len}});
    }
  }
  return views_;
}

void SenderSession::on_batch_sent() {
  if (tracer_ != nullptr && selected_ > 0) {
    tracer_->record(EventType::kBatchSent, -1, selected_);
  }
  if (crash_pending_) end(TransferStatus::kCrashed, "injected crash");
}

FlowResult SenderSession::finish(SessionTime now) {
  close(now, completed(), core_.spec().object_bytes);
  result_.packets_sent = core_.stats().packets_sent;
  result_.waste = core_.waste();
  auto& metrics = MetricsRegistry::global();
  if (completed()) {
    metrics
        .histogram("fobs.posix.sender.elapsed_ms", {1, 10, 100, 1'000, 10'000, 60'000, 600'000})
        .observe(static_cast<std::int64_t>(result_.elapsed_seconds * 1e3));
  }
  metrics.counter("fobs.posix.sender.packets_sent").inc(result_.packets_sent);
  return result_;
}

ReceiverSession::ReceiverSession(const ReceiverOptions& options, const ReceiveFlow& flow,
                                 TransferCheckpoint* checkpoint,
                                 fobs::core::WriteBehindSink* write_behind, std::uint32_t epoch,
                                 SessionTime start)
    : FlowSession(options.endpoint.timeout_ms, flow.fault_plan, flow.tracer, start),
      core_(flow.spec, options.core),
      stripe_(flow.stripe),
      first_packet_(static_cast<std::size_t>(flow.first_packet)),
      checkpoint_(checkpoint),
      write_behind_(write_behind),
      packet_crcs_(static_cast<std::size_t>(flow.spec.packet_count())),
      epoch_(epoch),
      checkpoint_every_acks_(std::max(1, options.checkpoint_every_acks)) {
  core_.set_tracer(flow.tracer);
  // Resume from this flow's range of the checkpoint; the caller kept the
  // bytes in the stripe (e.g. a file-backed mapping).
  const auto packets = flow.spec.packet_count();
  const auto count = static_cast<std::size_t>(packets);
  const auto packed =
      checkpoint_ != nullptr ? checkpoint_->restored(first_packet_, count) : std::nullopt;
  if (packed) {
    const auto restored = core_.restore(packed->data(), packed->size(), packets);
    if (restored >= 0) {
      result_.packets_restored = restored;
      MetricsRegistry::global().counter("fobs.fault.resumes").inc();
    }
  }
  if (write_behind_ != nullptr) {
    const auto address = reinterpret_cast<std::uintptr_t>(stripe_.data());
    pages_begin_ = static_cast<std::int64_t>(((address + kPageMask) & ~kPageMask) - address);
    pages_end_ = static_cast<std::int64_t>(((address + stripe_.size()) & ~kPageMask) - address);
    const auto packet_bytes = flow.spec.packet_bytes;
    for (auto at = pages_begin_; at < pages_end_; at += kWindowBytes) {
      const auto end = std::min(at + kWindowBytes, pages_end_);
      window_missing_.push_back((end - 1) / packet_bytes - at / packet_bytes + 1);
    }
  }
  // Restored packets did not pass the wire check: their CRCs come from
  // the bytes the previous incarnation left in the stripe.
  if (result_.packets_restored > 0) {
    const auto& received = core_.received();
    for (auto seq = received.first_set(0); seq; seq = received.first_set(*seq + 1)) {
      const auto packet = static_cast<fobs::core::PacketSeq>(*seq);
      packet_crcs_[*seq] =
          fobs::util::crc32(stripe_.data() + flow.spec.offset_of(packet),
                            static_cast<std::size_t>(flow.spec.payload_bytes(packet)));
      count_placed(packet);
    }
  }
}

void ReceiverSession::on_connect_failed(bool cancelled) {
  end(cancelled ? TransferStatus::kCancelled : TransferStatus::kPeerLost,
      cancelled ? "cancelled" : "control connect timeout");
}

void ReceiverSession::on_control_connected(SessionTime now) {
  // The stall budget measures the data phase only: a slow control
  // connect must not count as empty intervals once data flows.
  if (!reconnected()) restart_budget(now);
}

std::vector<std::uint8_t> ReceiverSession::state_frame() const {
  const auto& received = core_.received();
  ReceiverState state{epoch_, core_.spec().packet_count(),
                      static_cast<std::int64_t>(received.count()), {}};
  if (state.received_count > 0 && !core_.complete()) {
    state.bitmap = received.extract_range(0, received.size());
  }
  return encode_state(state);
}

bool ReceiverSession::tick(SessionTime now, bool cancelled) {
  return budget_spent(now, cancelled, core_, core_.stats().packets_received > 0) ||
         crash_now();
}

std::span<const fobs::net::DatagramView> ReceiverSession::on_datagram(
    std::span<const std::uint8_t> bytes) {
  // The crash fires mid-batch too, as a kill -9 mid-recvmmsg would.
  if (crash_now()) return {};
  const fobs::core::TransferSpec& spec = core_.spec();
  const auto header = decode_data_header(bytes.data(), bytes.size());
  if (!header || header->seq < 0 || header->seq >= spec.packet_count()) return {};
  const auto len = static_cast<std::size_t>(spec.payload_bytes(header->seq));
  if (bytes.size() < kDataHeaderSize + len) return {};  // truncated
  const std::uint8_t* payload = bytes.data() + kDataHeaderSize;
  // A CRC failure never touches the stripe; the sender resends it. The
  // CRC covers the seq too, so a damaged seq cannot misplace good bytes.
  // The receiver's data schedule models damage the CRC missed, per datagram.
  const std::uint32_t payload_crc = fobs::util::crc32(payload, len);
  const bool crc_ok = packet_crc(bytes.data(), payload_crc) == header->crc;
  const auto fate = crc_ok ? decide(FaultChannel::kData) : fobs::net::FaultDecision{};
  if (fate.copies == 0) return {};
  if (!crc_ok || fate.corrupt) {
    count_fault(result_.corrupt_dropped, "fobs.fault.corrupt_drops",
                EventType::kCorruptDrop, header->seq);
    return {};
  }

  const auto outcome = core_.on_data_packet(header->seq);
  if (outcome.newly_received) {
    std::memcpy(stripe_.data() + spec.offset_of(header->seq), payload, len);
    packet_crcs_[static_cast<std::size_t>(header->seq)] = payload_crc;
    count_placed(header->seq);
  }
  if (!outcome.ack_due) return {};
  auto msg = core_.make_ack();
  msg.epoch = epoch_;
  ack_ = encode_ack(msg);
  const auto ack_fate = decide(FaultChannel::kAck);
  if (ack_fate.corrupt) ack_[0] ^= 0xFF;  // smash the magic: the sender counts and rejects it
  if (tracer_ != nullptr) {
    tracer_->record(EventType::kAckSent, static_cast<std::int64_t>(msg.ack_no),
                    static_cast<std::int64_t>(ack_.size()));
  }
  if (checkpoint_ != nullptr && ++acks_since_checkpoint_ >= checkpoint_every_acks_) {
    acks_since_checkpoint_ = 0;
    checkpoint_->fold(first_packet_, core_.received());
  }
  // A duplicated ACK is one two-view batch: one sendmmsg call.
  ack_views_.fill({std::span<const std::uint8_t>(ack_)});
  return std::span<const fobs::net::DatagramView>(ack_views_.data(),
                                                  static_cast<std::size_t>(ack_fate.copies));
}

void ReceiverSession::count_placed(fobs::core::PacketSeq seq) {
  if (window_missing_.empty()) return;
  const fobs::core::TransferSpec& spec = core_.spec();
  const auto begin = std::max(spec.offset_of(seq), pages_begin_);
  const auto end = std::min(spec.offset_of(seq) + spec.payload_bytes(seq), pages_end_);
  if (begin >= end) return;  // only in a page the stripe shares
  // Count it in every window [begin, end) overlaps; a window whose
  // count reaches zero holds only placed packets and is final.
  for (auto at = begin - (begin - pages_begin_) % kWindowBytes; at < end; at += kWindowBytes) {
    if (--window_missing_[static_cast<std::size_t>((at - pages_begin_) / kWindowBytes)] > 0) {
      continue;
    }
    const auto size = std::min(kWindowBytes, pages_end_ - at);
    write_behind_->written(std::span<const std::uint8_t>(stripe_).subspan(
        static_cast<std::size_t>(at), static_cast<std::size_t>(size)));
  }
}

FlowResult ReceiverSession::finish(SessionTime now) {
  // The engine removes the file once every flow has completed.
  if (completed() && checkpoint_ != nullptr) checkpoint_->fold(first_packet_, core_.received());
  if (completed()) {
    // The stripe's CRC-32C, packet CRCs folded in order; only the last
    // packet may be short.
    const fobs::core::TransferSpec& spec = core_.spec();
    const fobs::util::Crc32Append append(static_cast<std::size_t>(spec.packet_bytes));
    const auto last = static_cast<std::size_t>(spec.packet_count() - 1);
    std::uint32_t crc = 0;
    for (std::size_t seq = 0; seq < last; ++seq) crc = append(crc, packet_crcs_[seq]);
    result_.checksum = fobs::util::crc32_combine(
        crc, packet_crcs_[last],
        static_cast<std::size_t>(spec.payload_bytes(static_cast<fobs::core::PacketSeq>(last))));
  }
  close(now, completed(), core_.spec().object_bytes);
  result_.packets_received = core_.stats().packets_received;
  result_.duplicates = core_.stats().duplicates;
  auto& metrics = MetricsRegistry::global();
  metrics.counter("fobs.posix.receiver.packets_received").inc(result_.packets_received);
  metrics.counter("fobs.posix.receiver.duplicates").inc(result_.duplicates);
  return result_;
}

}  // namespace fobs::posix::detail

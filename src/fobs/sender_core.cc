#include "fobs/sender_core.h"

#include <algorithm>
#include <cassert>

namespace fobs::core {

SenderCore::SenderCore(TransferSpec spec, SenderConfig config)
    : spec_(spec),
      config_(config),
      acked_view_(static_cast<std::size_t>(spec.packet_count())),
      policy_(make_selection_policy(config.selection, fobs::util::Rng(config.seed))),
      send_counts_(static_cast<std::size_t>(spec.packet_count()), 0),
      batch_size_(std::max(1, config.batch_size)) {
  assert(spec_.object_bytes >= 0);
  assert(spec_.packet_bytes > 0);
}

std::optional<PacketSeq> SenderCore::select_next() {
  const auto seq = policy_->select(acked_view_);
  if (!seq) return std::nullopt;
  auto& count = send_counts_[static_cast<std::size_t>(*seq)];
  if (count > 0) ++stats_.duplicate_sends;
  ++count;
  ++stats_.packets_sent;
  return seq;
}

std::int64_t SenderCore::on_ack(const AckMessage& ack) {
  ++stats_.acks_processed;
  const std::int64_t newly = apply_ack(ack, acked_view_);
  stats_.packets_acked += newly;
  if (tracer_ != nullptr) {
    tracer_->record(telemetry::EventType::kAckProcessed,
                    static_cast<std::int64_t>(ack.ack_no), newly);
  }
  if (config_.batch_policy == BatchPolicy::kAckAdaptive) update_adaptive_batch(ack);
  return newly;
}

std::int64_t SenderCore::on_resume(const std::uint8_t* packed, std::size_t packed_len,
                                   std::int64_t nbits) {
  if (nbits != spec_.packet_count() || nbits < 0) return -1;
  const std::int64_t newly = static_cast<std::int64_t>(
      acked_view_.merge_range(0, static_cast<std::size_t>(nbits), packed, packed_len));
  stats_.packets_acked += newly;
  if (tracer_ != nullptr) {
    tracer_->record(telemetry::EventType::kResume, -1, newly);
  }
  return newly;
}

void SenderCore::on_peer_restart() {
  acked_view_.clear_all();
  stats_.packets_acked = 0;
  // The replacement receiver numbers its ACKs from 1 again and reports
  // totals for its own incarnation only.
  last_ack_no_ = 0;
  last_total_received_ = 0;
  // A reconnect is progress; restart the stall budget from a zero view.
  progress_at_last_interval_ = 0;
  empty_intervals_ = 0;
}

int SenderCore::on_stall_interval() {
  // Progress = unique packets known received, plus the completion
  // signal itself (a completing-but-quiet interval is not a stall).
  const std::int64_t progress = static_cast<std::int64_t>(acked_view_.count()) +
                                (completion_received_ ? 1 : 0);
  if (progress > progress_at_last_interval_) {
    progress_at_last_interval_ = progress;
    empty_intervals_ = 0;
    return 0;
  }
  ++empty_intervals_;
  if (tracer_ != nullptr) {
    tracer_->record(telemetry::EventType::kStall, -1, empty_intervals_);
  }
  return empty_intervals_;
}

void SenderCore::update_adaptive_batch(const AckMessage& ack) {
  if (ack.ack_no <= last_ack_no_) return;  // stale/reordered ack
  if (last_ack_no_ != 0) {
    const std::int64_t delta = ack.total_received - last_total_received_;
    const std::uint64_t acks = ack.ack_no - last_ack_no_;
    if (acks > 0 && delta >= 0) {
      // Target roughly half the observed per-ACK delivery rate: enough
      // to keep the pipe fed, small enough to check for ACKs often.
      const auto per_ack = static_cast<double>(delta) / static_cast<double>(acks);
      batch_size_ = static_cast<int>(std::clamp(per_ack / 2.0, 1.0, 64.0));
    }
  }
  last_ack_no_ = ack.ack_no;
  last_total_received_ = ack.total_received;
}

}  // namespace fobs::core

#include "sim/cross_traffic.h"

#include <cassert>

namespace fobs::sim {

namespace {
Duration gap_for(std::int64_t packet_bytes, DataRate rate) {
  assert(rate.bps() > 0.0);
  return fobs::util::transmission_time(fobs::util::DataSize::bytes(packet_bytes), rate);
}
}  // namespace

OnOffSource::OnOffSource(Simulation& sim, PacketSink& target, NodeId src, NodeId dst,
                         std::int64_t packet_bytes, DataRate peak_rate, Duration mean_on,
                         Duration mean_off, Rng rng)
    : sim_(sim),
      rng_(rng),
      target_(target),
      src_(src),
      dst_(dst),
      packet_bytes_(packet_bytes),
      peak_gap_(gap_for(packet_bytes, peak_rate)),
      mean_on_(mean_on),
      mean_off_(mean_off) {
  assert(packet_bytes_ > 0);
}

void OnOffSource::start() {
  if (running_) return;
  running_ = true;
  sim_.schedule_in(next_gap(), [this] { emit_and_reschedule(); });
}

Duration OnOffSource::next_gap() {
  if (in_burst_ && sim_.now() < burst_end_) return peak_gap_;
  // Burst over (or first call): draw an off period, then a new burst.
  const Duration off = rng_.exponential(mean_off_);
  const Duration on = rng_.exponential(mean_on_);
  burst_end_ = sim_.now() + off + on;
  in_burst_ = true;
  return off + peak_gap_;
}

void OnOffSource::emit_and_reschedule() {
  if (!running_) return;
  Packet pkt;
  pkt.uid = next_uid_++;
  pkt.src = src_;
  pkt.dst = dst_;
  pkt.size_bytes = packet_bytes_;
  target_.deliver(std::move(pkt));
  ++stats_.packets_sent;
  stats_.bytes_sent += packet_bytes_;
  sim_.schedule_in(next_gap(), [this] { emit_and_reschedule(); });
}

}  // namespace fobs::sim

#include "sim/link.h"

#include <cassert>
#include <utility>

#include "common/log.h"

namespace fobs::sim {

Link::Link(Simulation& sim, LinkConfig config)
    : sim_(sim), config_(std::move(config)), loss_rng_(0) {
  assert(config_.rate.bps() > 0.0);
  assert(config_.queue_capacity_bytes > 0);
}

void Link::set_loss_model(std::unique_ptr<LossModel> model, fobs::util::Rng rng) {
  loss_ = std::move(model);
  loss_rng_ = rng;
}

void Link::deliver(Packet packet) {
  ++stats_.packets_offered;
  if (loss_ && loss_->should_drop(packet, loss_rng_)) {
    ++stats_.drops_random;
    FOBS_TRACE("link", name() << ": random drop uid=" << packet.uid);
    return;
  }
  if (!has_room_for(packet.size_bytes)) {
    ++stats_.drops_overflow;
    FOBS_TRACE("link", name() << ": overflow drop uid=" << packet.uid
                              << " queued=" << queued_bytes_);
    return;
  }
  queued_bytes_ += packet.size_bytes;
  queue_.push_back(std::move(packet));
  if (!transmitting_) start_transmission();
}

void Link::start_transmission() {
  assert(!transmitting_);
  if (queue_.empty()) return;
  transmitting_ = true;
  in_flight_ = std::move(queue_.front());
  queue_.pop_front();
  queued_bytes_ -= in_flight_.size_bytes;
  const Duration tx = fobs::util::transmission_time(in_flight_.size(), config_.rate);
  stats_.busy_time += tx;
  sim_.schedule_in(tx, [this] { finish_transmission(); });
  if (space_cb_) space_cb_();
}

void Link::finish_transmission() {
  assert(transmitting_);
  transmitting_ = false;
  ++stats_.packets_delivered;
  stats_.bytes_delivered += in_flight_.size_bytes;
  if (sink_ != nullptr) {
    // Propagation: the packet arrives at the far end after the fixed
    // one-way delay (plus jitter, which can reorder); the link itself is
    // free to transmit the next packet immediately (pipelining).
    Packet arriving = std::move(in_flight_);
    PacketSink* sink = sink_;
    Duration delay = config_.propagation_delay;
    if (config_.jitter > Duration::zero()) {
      delay += Duration::nanoseconds(loss_rng_.uniform_int(0, config_.jitter.ns()));
    }
    sim_.schedule_in(delay,
                     [sink, pkt = std::move(arriving)]() mutable { sink->deliver(std::move(pkt)); });
  }
  if (!queue_.empty()) start_transmission();
}

}  // namespace fobs::sim

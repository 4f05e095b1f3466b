#include "host/host.h"

#include <algorithm>
#include <cassert>
#include <memory>
#include <utility>

namespace fobs::host {

Host::Host(Network& network, HostConfig config)
    : Node(network.next_node_id(), config.name), network_(network), config_(std::move(config)) {}

Host& Host::create(Network& network, HostConfig config) {
  // std::make_unique cannot reach the private constructor.
  std::unique_ptr<Host> host(new Host(network, std::move(config)));
  return network.adopt(std::move(host));
}

void Host::set_egress(Link* link) {
  egress_ = link;
  if (egress_ != nullptr) {
    egress_->set_space_callback([this] { fire_writable(); });
  }
}

void Host::notify_writable(const void* owner, std::function<void()> cb) {
  writable_waiters_.push_back({owner, std::move(cb)});
}

void Host::withdraw_writable(const void* owner) {
  std::erase_if(writable_waiters_,
                [owner](const WritableWaiter& waiter) { return waiter.owner == owner; });
}

fobs::util::TimePoint Host::reserve_cpu(Duration cost) {
  if (cost < Duration::zero()) cost = Duration::zero();
  const auto now = network_.sim().now();
  const auto start = std::max(now, cpu_free_at_);
  cpu_free_at_ = start + cost;
  return cpu_free_at_;
}

void Host::fire_writable() {
  if (writable_waiters_.empty()) return;
  std::vector<WritableWaiter> waiters;
  waiters.swap(writable_waiters_);
  // Rotate the wake order across events. Waking in a fixed order lets
  // the first waiter refill the queue and re-register first every time,
  // starving the others — real select() wakeups round-robin in effect.
  const std::size_t start = wake_rotation_++ % waiters.size();
  for (std::size_t i = 0; i < waiters.size(); ++i) {
    waiters[(start + i) % waiters.size()].cb();
  }
}

void Host::send(Packet packet) {
  assert(egress_ != nullptr && "host has no egress link configured");
  packet.src = id();
  packet.uid = network_.next_packet_uid();
  egress_->deliver(std::move(packet));
}

bool Host::can_send(std::int64_t wire_bytes) const {
  assert(egress_ != nullptr);
  return egress_->has_room_for(wire_bytes);
}

void Host::bind(PortId port, PortHandler* handler) {
  assert(handler != nullptr);
  const auto [it, inserted] = ports_.emplace(port, handler);
  (void)it;
  assert(inserted && "port already bound");
  (void)inserted;
}

void Host::unbind(PortId port) { ports_.erase(port); }

PortId Host::allocate_port() {
  while (ports_.count(next_ephemeral_) != 0) {
    ++next_ephemeral_;
    if (next_ephemeral_ == 0) next_ephemeral_ = 49152;  // wrapped
  }
  return next_ephemeral_++;
}

void Host::deliver(Packet packet) {
  auto it = ports_.find(packet.dst_port);
  if (it == ports_.end()) {
    ++no_port_drops_;
    return;
  }
  it->second->handle_packet(std::move(packet));
}

}  // namespace fobs::host

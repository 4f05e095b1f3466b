#include "net/udp.h"

#include <cassert>
#include <utility>

namespace fobs::net {

UdpEndpoint::UdpEndpoint(Host& host, PortId port, std::int64_t rx_buffer_bytes)
    : host_(host),
      port_(port == 0 ? host.allocate_port() : port),
      rx_capacity_bytes_(rx_buffer_bytes > 0 ? rx_buffer_bytes : kDefaultRxBufferBytes) {
  host_.bind(port_, this);
}

UdpEndpoint::~UdpEndpoint() { host_.unbind(port_); }

bool UdpEndpoint::send_to(NodeId dst, PortId dst_port, std::int64_t payload_bytes,
                          std::any payload) {
  assert(payload_bytes >= 0);
  const std::int64_t wire = payload_bytes + fobs::sim::kUdpIpOverheadBytes;
  if (!host_.can_send(wire)) {
    ++stats_.send_would_block;
    return false;
  }
  Packet pkt;
  pkt.dst = dst;
  pkt.dst_port = dst_port;
  pkt.src_port = port_;
  pkt.size_bytes = wire;
  pkt.payload = std::move(payload);
  host_.send(std::move(pkt));
  ++stats_.datagrams_sent;
  stats_.bytes_sent += payload_bytes;
  return true;
}

bool UdpEndpoint::writable(std::int64_t payload_bytes) const {
  return host_.can_send(payload_bytes + fobs::sim::kUdpIpOverheadBytes);
}

std::optional<Packet> UdpEndpoint::try_recv() {
  if (rx_queue_.empty()) return std::nullopt;
  Packet pkt = std::move(rx_queue_.front());
  rx_queue_.pop_front();
  rx_bytes_ -= pkt.size_bytes;
  return pkt;
}

void UdpEndpoint::handle_packet(Packet packet) {
  if (rx_bytes_ + packet.size_bytes > rx_capacity_bytes_) {
    ++stats_.rx_overflow_drops;
    return;
  }
  const bool was_empty = rx_queue_.empty();
  rx_bytes_ += packet.size_bytes;
  ++stats_.datagrams_received;
  stats_.bytes_received += packet.size_bytes - fobs::sim::kUdpIpOverheadBytes;
  rx_queue_.push_back(std::move(packet));
  if (was_empty && rx_notify_) {
    // One-shot: take the callback out before invoking so the handler can
    // re-arm without reentrancy surprises.
    auto cb = std::move(rx_notify_);
    rx_notify_ = nullptr;
    cb();
  }
}

}  // namespace fobs::net

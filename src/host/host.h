// End-system (host) model: NIC egress, port demultiplexing, and a CPU
// cost model.
//
// The paper's headline curves are end-system effects, not wire effects:
//  * Figure 1: a FOBS receiver that is busy building an acknowledgement
//    is not draining its UDP socket buffer, so packets arriving during
//    that window overflow and are lost.
//  * Figure 3: per-datagram syscall/copy cost caps the achievable receive
//    rate, so bigger UDP packets win until fragmentation fragility bites.
// The Host therefore charges explicit CPU time for sends/receives, which
// protocol drivers use to self-schedule their polling loops.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/units.h"
#include "sim/link.h"
#include "sim/node.h"
#include "sim/packet.h"

namespace fobs::host {

using fobs::sim::Link;
using fobs::sim::Network;
using fobs::sim::NodeId;
using fobs::sim::Packet;
using fobs::sim::PortId;
using fobs::util::DataSize;
using fobs::util::Duration;

/// Per-host CPU cost model. Costs are charged by protocol drivers when
/// they perform the corresponding operation.
struct CpuModel {
  /// Fixed cost of one datagram send (syscall, header build).
  Duration per_packet_send = Duration::microseconds(5);
  /// Additional send cost per 1024 payload bytes (user->kernel copy).
  Duration per_kb_send = Duration::microseconds(1);
  /// Fixed cost of one datagram receive (syscall, demux).
  Duration per_packet_recv = Duration::microseconds(5);
  /// Additional receive cost per 1024 payload bytes (kernel->user copy).
  Duration per_kb_recv = Duration::microseconds(1);
  /// Cost of building + sending one FOBS acknowledgement packet. While
  /// this elapses the receiver does not drain its socket buffer.
  Duration ack_build = Duration::microseconds(60);

  [[nodiscard]] Duration send_cost(DataSize payload) const {
    return per_packet_send + per_kb_send * (static_cast<double>(payload.bytes()) / 1024.0);
  }
  [[nodiscard]] Duration recv_cost(DataSize payload) const {
    return per_packet_recv + per_kb_recv * (static_cast<double>(payload.bytes()) / 1024.0);
  }
};

struct HostConfig {
  std::string name = "host";
  CpuModel cpu;
};

/// Receives packets demultiplexed to a bound port.
class PortHandler {
 public:
  virtual ~PortHandler() = default;
  virtual void handle_packet(Packet packet) = 0;
};

class Host final : public fobs::sim::Node {
 public:
  /// Creates a host and registers it with (transfers ownership to) the
  /// network.
  static Host& create(Network& network, HostConfig config);

  /// The first hop for all outbound traffic — the host's NIC link.
  void set_egress(Link* link);
  [[nodiscard]] Link* egress() const { return egress_; }

  /// One-shot callback fired the next time the NIC queue frees space.
  /// This is how endpoints model blocking in select() until the socket
  /// becomes writable. `owner` names the registrant for
  /// `withdraw_writable`.
  void notify_writable(const void* owner, std::function<void()> cb);
  /// Drops every waiter `owner` registered that has not fired yet. An
  /// endpoint calls this when it is destroyed, so no callback outlives it.
  void withdraw_writable(const void* owner);

  /// Reserves `cost` of CPU time on this host's single core, starting
  /// no earlier than now, and returns the completion time. Protocol
  /// drivers schedule their next step at the returned time, so multiple
  /// transfers co-located on one host contend for the CPU instead of
  /// each pretending to own it. A lone driver sees now()+cost exactly.
  [[nodiscard]] fobs::util::TimePoint reserve_cpu(Duration cost);

  /// Sends a packet: stamps src/uid and offers it to the NIC link. The
  /// NIC queue models the socket send buffer; when it is full the packet
  /// would be dropped, so senders that model select() should check
  /// `can_send` first.
  void send(Packet packet);
  /// True when the NIC queue can accept `wire_bytes` more.
  [[nodiscard]] bool can_send(std::int64_t wire_bytes) const;

  /// Port demux registration. Binding an in-use port is a programming
  /// error (asserts).
  void bind(PortId port, PortHandler* handler);
  void unbind(PortId port);
  /// Returns an unused ephemeral port.
  [[nodiscard]] PortId allocate_port();

  void deliver(Packet packet) override;

  [[nodiscard]] const HostConfig& config() const { return config_; }
  [[nodiscard]] const CpuModel& cpu() const { return config_.cpu; }
  [[nodiscard]] Network& network() { return network_; }
  [[nodiscard]] std::uint64_t no_port_drops() const { return no_port_drops_; }

 private:
  Host(Network& network, HostConfig config);
  void fire_writable();

  Network& network_;
  HostConfig config_;
  Link* egress_ = nullptr;
  std::unordered_map<PortId, PortHandler*> ports_;
  struct WritableWaiter {
    const void* owner;
    std::function<void()> cb;
  };
  std::vector<WritableWaiter> writable_waiters_;
  std::size_t wake_rotation_ = 0;
  fobs::util::TimePoint cpu_free_at_;
  PortId next_ephemeral_ = 49152;
  std::uint64_t no_port_drops_ = 0;
};

}  // namespace fobs::host

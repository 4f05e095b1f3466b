// Simulator drivers that run the FOBS sender/receiver cores over the
// discrete-event network. Private to the runner (fobs/sim_transfer.h),
// which wires one pair per transfer and owns the event loop.
//
// The drivers reproduce the paper's user-level process structure:
//  * both sides are single-threaded poll loops that charge host CPU time
//    for every syscall-equivalent (send, recv, ACK construction);
//  * the sender never blocks on ACKs — it checks for one per iteration
//    (paper phase 2) and otherwise keeps batch-sending;
//  * a full NIC/socket send buffer makes the sender wait for
//    writability, mirroring the select() call in the paper;
//  * while the receiver is busy (processing a packet or building an
//    ACK), arrivals queue in its UDP socket buffer; overflow there is
//    packet loss — the paper's "packets missed while creating and
//    sending an acknowledgement ... will be lost".
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <vector>

#include "fobs/adaptive.h"
#include "fobs/receiver_core.h"
#include "fobs/sender_core.h"
#include "fobs/wire.h"
#include "host/host.h"
#include "net/faults.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "sim/simulation.h"

namespace fobs::core {

using fobs::host::Host;
using fobs::sim::NodeId;
using fobs::sim::PortId;
using fobs::util::Duration;
using fobs::util::TimePoint;

/// The simulation events one driver has scheduled. Destroying the set
/// cancels those not yet fired, so a destroyed driver leaves nothing in
/// the simulation that would call back into it.
class DriverEvents {
 public:
  explicit DriverEvents(fobs::sim::Simulation& sim) : sim_(sim) {}
  ~DriverEvents();

  DriverEvents(const DriverEvents&) = delete;
  DriverEvents& operator=(const DriverEvents&) = delete;

  void at(TimePoint t, std::function<void()> fn) { keep(sim_.schedule_at(t, std::move(fn))); }
  void in(Duration delay, std::function<void()> fn) {
    keep(sim_.schedule_in(delay, std::move(fn)));
  }

 private:
  void keep(fobs::sim::EventId id);

  fobs::sim::Simulation& sim_;
  std::vector<fobs::sim::EventId> ids_;
};

/// Sender-side driver: greedy batch-send loop, plus the paper's §7
/// extension (pacing gaps and the TCP fallback), which only this driver
/// runs.
class SimSender {
 public:
  /// @param adaptive the §7 switches (both off = plain greedy FOBS).
  /// @param data pointer to `spec.object_bytes` bytes (may be null for a
  ///        size-only simulation); must outlive the driver.
  /// @param port_base first of the four consecutive ports this transfer
  ///        uses (must match the receiver's).
  /// @param transfer id stamped on every datagram and required of every
  ///        ACK; unique per transfer on the network (must match the
  ///        receiver's).
  SimSender(Host& host, TransferSpec spec, SenderConfig config, AdaptiveConfig adaptive,
            const std::uint8_t* data, NodeId receiver_node, PortId port_base,
            std::uint64_t transfer);
  /// Withdraws the writability waiter; `events_` cancels the rest.
  ~SimSender();

  SimSender(const SimSender&) = delete;
  SimSender& operator=(const SimSender&) = delete;

  /// Starts the send loop (call after the receiver exists).
  void start();

  /// Attaches a per-transfer event tracer (must outlive the driver).
  /// `start()` installs the sim clock on it and records transfer_start;
  /// the driver adds batch/fallback events on top of the core's.
  void set_tracer(telemetry::EventTracer* tracer) { core_.set_tracer(tracer); }

  /// Attaches a fault injector (must outlive the driver; may be shared
  /// with the receiver). The sender consults the data-channel schedule
  /// before every datagram send and rejects checksum-failing ACKs.
  void set_fault_injector(fobs::net::FaultInjector* faults) { faults_ = faults; }

  /// Progress check for stall detection; forwards to the core.
  int on_stall_interval() { return core_.on_stall_interval(); }

  /// Ends the send loop for good: the run is over for this transfer.
  /// Events already scheduled find the driver stopped and do nothing,
  /// and the fallback TCP connection, if one was opened, is aborted:
  /// what it holds would otherwise be sent and resent after the end.
  void stop() {
    stopped_ = true;
    if (tcp_data_ != nullptr) tcp_data_->abort();
  }

  /// ACKs rejected because their (modelled) checksum failed.
  [[nodiscard]] std::int64_t corrupt_dropped() const { return corrupt_dropped_; }

  [[nodiscard]] const SenderCore& core() const { return core_; }
  [[nodiscard]] bool finished() const { return finished_; }
  [[nodiscard]] TimePoint finished_at() const { return finished_at_; }
  /// Every data packet sent: the core's UDP sends plus the TCP-fallback
  /// sends.
  [[nodiscard]] std::int64_t packets_sent() const {
    return core_.stats().packets_sent + packets_via_tcp_;
  }
  /// §7 TCP-fallback diagnostics.
  [[nodiscard]] int fallback_episodes() const { return fallback_episodes_; }
  [[nodiscard]] std::int64_t packets_sent_via_tcp() const { return packets_via_tcp_; }

 private:
  enum class Mode { kUdp, kTcpFallback };

  void step();
  void on_control_message(const std::any& message);
  void enter_fallback();
  void exit_fallback();
  void pump_tcp();
  void probe_tick();
  /// Folds one ACK into the core and the §7 controller, or counts and
  /// traces a corrupt one.
  void take_ack(const AckPacketPayload& ack);
  /// True once the loop must do no more work: finished or stopped.
  [[nodiscard]] bool done() const { return finished_ || stopped_; }

  Host& host_;
  DriverEvents events_;
  TransferSpec spec_;
  SenderCore core_;
  const std::uint8_t* data_;
  NodeId receiver_node_;
  PortId port_base_;
  std::uint64_t transfer_;
  fobs::net::UdpEndpoint data_out_;
  fobs::net::UdpEndpoint ack_in_;
  fobs::net::TcpListener completion_listener_;
  std::unique_ptr<fobs::net::TcpConnection> control_conn_;
  bool started_ = false;
  bool finished_ = false;
  bool stopped_ = false;
  bool step_scheduled_ = false;
  TimePoint finished_at_;
  fobs::net::FaultInjector* faults_ = nullptr;
  std::int64_t corrupt_dropped_ = 0;
  // --- §7 greediness controller, fed the deltas between ACKs ---
  GreedinessController adaptive_;
  std::int64_t sent_at_last_ack_ = 0;
  std::int64_t received_at_last_ack_ = 0;
  // --- §7 TCP-fallback state ---
  Mode mode_ = Mode::kUdp;
  std::unique_ptr<fobs::net::TcpConnection> tcp_data_;
  PacketSeq tcp_cursor_ = 0;
  int fallback_episodes_ = 0;
  std::int64_t packets_via_tcp_ = 0;
  std::uint64_t probe_rtx_snapshot_ = 0;
  int probe_clear_streak_ = 0;
};

/// Receiver-side driver: poll loop with ACK generation.
class SimReceiver {
 public:
  /// @param buffer receive buffer of `spec.object_bytes` bytes (may be
  ///        null for size-only runs); must outlive the driver.
  /// @param socket_buffer_bytes UDP receive socket buffer — the overflow
  ///        point that models Figure 1's ACK-stall losses.
  /// @param transfer the sender's transfer id: data packets carrying
  ///        another are ignored, and every ACK carries this one.
  SimReceiver(Host& host, TransferSpec spec, ReceiverConfig config, std::uint8_t* buffer,
              NodeId sender_node, std::int64_t socket_buffer_bytes, PortId port_base,
              std::uint64_t transfer);

  /// Opens the TCP control connection and starts polling.
  void start();

  /// Attaches a per-transfer event tracer (must outlive the driver).
  /// `start()` installs the sim clock on it; the driver adds ack_sent
  /// and drop_while_acking events on top of the core's.
  void set_tracer(telemetry::EventTracer* tracer) { core_.set_tracer(tracer); }

  /// Attaches a fault injector (must outlive the driver; may be shared
  /// with the sender). The receiver rejects corrupted data packets,
  /// applies the ACK/control schedules to its outgoing messages, and
  /// crashes (goes silent) at the plan's crash point.
  void set_fault_injector(fobs::net::FaultInjector* faults) { faults_ = faults; }

  /// Progress check for stall detection; forwards to the core.
  int on_stall_interval() { return core_.on_stall_interval(); }

  /// Ends the poll loop for good: the run is over for this transfer.
  /// Later arrivals, on either data channel, are left unprocessed, and
  /// the fallback TCP connection, if the sender opened one, is aborted.
  void stop() {
    stopped_ = true;
    if (fallback_conn_ != nullptr) fallback_conn_->abort();
  }

  /// Data packets rejected because their (modelled) checksum failed.
  [[nodiscard]] std::int64_t corrupt_dropped() const { return corrupt_dropped_; }

  [[nodiscard]] const ReceiverCore& core() const { return core_; }
  [[nodiscard]] bool complete() const { return core_.complete(); }
  [[nodiscard]] TimePoint completed_at() const { return completed_at_; }
  /// Packets dropped because the socket buffer overflowed while the
  /// receiver was busy.
  [[nodiscard]] std::uint64_t socket_drops() const { return data_in_.stats().rx_overflow_drops; }
  [[nodiscard]] std::uint64_t acks_sent() const { return acks_sent_; }

 private:
  void step();
  /// Shared handling for a data packet, whatever channel it arrived on.
  /// Returns the CPU time consumed.
  Duration process_packet(const DataPacketPayload& payload);
  void on_tcp_data(const std::any& message);

  Host& host_;
  DriverEvents events_;
  TransferSpec spec_;
  ReceiverCore core_;
  std::uint8_t* buffer_;
  NodeId sender_node_;
  PortId port_base_;
  std::uint64_t transfer_;
  fobs::net::UdpEndpoint data_in_;
  fobs::net::UdpEndpoint ack_out_;
  fobs::net::TcpConnection control_conn_;
  fobs::net::TcpListener fallback_listener_;
  std::unique_ptr<fobs::net::TcpConnection> fallback_conn_;
  fobs::net::FaultInjector* faults_ = nullptr;
  std::int64_t corrupt_dropped_ = 0;
  bool crashed_ = false;
  bool stopped_ = false;
  bool started_ = false;
  TimePoint completed_at_;
  std::uint64_t acks_sent_ = 0;
  std::uint64_t traced_drops_ = 0;
};

}  // namespace fobs::core

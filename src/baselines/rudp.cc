#include "baselines/rudp.h"

#include <any>
#include <memory>
#include <vector>

#include "fobs/sim_driver.h"
#include "fobs/wire.h"
#include "net/tcp.h"
#include "net/udp.h"

namespace fobs::baselines {

namespace {

using fobs::core::DataPacketPayload;
using fobs::core::PacketSeq;
using fobs::core::TransferSpec;
using fobs::net::TcpConnection;
using fobs::net::TcpListener;
using fobs::net::UdpEndpoint;
using fobs::sim::PortId;
using fobs::util::Bitmap;
using fobs::util::DataSize;
using fobs::util::TimePoint;

constexpr PortId kRudpDataPort = 6001;
constexpr PortId kRudpControlPort = 6002;
/// Receiver's UDP socket buffer, and the give-up time of a run.
constexpr std::int64_t kReceiverSocketBufferBytes = 256 * 1024;
constexpr Duration kTimeout = Duration::seconds(600);

struct PassDone {
  int pass = 0;
};

struct NakList {
  int pass = 0;
  bool complete = false;
  std::shared_ptr<const std::vector<PacketSeq>> missing;
};

class RudpReceiver {
 public:
  RudpReceiver(Host& host, const RudpConfig& config, fobs::sim::NodeId sender)
      : host_(host),
        events_(host.network().sim()),
        config_(config),
        sender_(sender),
        received_(static_cast<std::size_t>(config.spec.packet_count())),
        data_in_(host, kRudpDataPort, kReceiverSocketBufferBytes),
        listener_(host, kRudpControlPort, fobs::net::TcpConfig{},
                  [this](std::unique_ptr<TcpConnection> conn) {
                    control_ = std::move(conn);
                    control_->set_on_message([this](const std::any& m) { on_control(m); });
                  }) {}

  void start() { poll(); }

  [[nodiscard]] bool complete() const { return received_.all_set(); }
  [[nodiscard]] TimePoint completed_at() const { return completed_at_; }
  [[nodiscard]] std::uint64_t socket_drops() const { return data_in_.stats().rx_overflow_drops; }

 private:
  fobs::sim::Simulation& sim() { return host_.network().sim(); }

  void on_control(const std::any& message) {
    const auto* done = std::any_cast<PassDone>(&message);
    if (done == nullptr) return;
    pending_pass_ = done->pass;
    arm_nak_check();
  }

  /// After a pass-done signal, wait for the data queue to drain and go
  /// quiet before reporting (in-flight packets may still arrive).
  void arm_nak_check() {
    events_.in(Duration::milliseconds(3), [this] {
      if (pending_pass_ < 0) return;
      if (data_in_.has_data() || sim().now() - last_data_ < Duration::milliseconds(3)) {
        arm_nak_check();
        return;
      }
      send_nak(pending_pass_);
      pending_pass_ = -1;
    });
  }

  void send_nak(int pass) {
    if (control_ == nullptr) return;
    auto missing = std::make_shared<std::vector<PacketSeq>>();
    std::size_t probe = 0;
    while (auto hole = received_.first_clear(probe)) {
      missing->push_back(static_cast<PacketSeq>(*hole));
      probe = *hole + 1;
    }
    NakList nak;
    nak.pass = pass;
    nak.complete = missing->empty();
    nak.missing = std::move(missing);
    const std::int64_t bytes = 16 + 8 * static_cast<std::int64_t>(nak.missing->size());
    control_->send_message(bytes, nak);
  }

  void poll() {
    auto pkt = data_in_.try_recv();
    if (!pkt) {
      data_in_.set_rx_notify([this] { poll(); });
      return;
    }
    last_data_ = sim().now();
    Duration busy = Duration::microseconds(1);
    if (const auto* data = std::any_cast<DataPacketPayload>(&pkt->payload)) {
      busy = host_.cpu().recv_cost(
          DataSize::bytes(data->len + fobs::core::kDataHeaderBytes));
      const bool was_complete = received_.all_set();
      received_.set(static_cast<std::size_t>(data->seq));
      if (!was_complete && received_.all_set()) {
        completed_at_ = sim().now();
        // Short-circuit: tell the sender immediately rather than waiting
        // for its next pass-done round trip.
        send_nak(pending_pass_ >= 0 ? pending_pass_ : -1);
        pending_pass_ = -1;
      }
    }
    events_.at(host_.reserve_cpu(busy), [this] { poll(); });
  }

  Host& host_;
  /// Every event this end scheduled: destroying it cancels those not fired.
  fobs::core::DriverEvents events_;
  RudpConfig config_;
  fobs::sim::NodeId sender_;
  Bitmap received_;
  UdpEndpoint data_in_;
  TcpListener listener_;
  std::unique_ptr<TcpConnection> control_;
  int pending_pass_ = -1;
  TimePoint last_data_;
  TimePoint completed_at_;
};

class RudpSender {
 public:
  RudpSender(Host& host, const RudpConfig& config, fobs::sim::NodeId receiver)
      : host_(host),
        events_(host.network().sim()),
        config_(config),
        receiver_(receiver),
        data_out_(host),
        control_(host, fobs::net::TcpConfig{}) {
    missing_.reserve(static_cast<std::size_t>(config.spec.packet_count()));
    for (PacketSeq s = 0; s < config.spec.packet_count(); ++s) missing_.push_back(s);
    if (!config.send_rate.is_zero()) {
      rate_gap_ = fobs::util::transmission_time(
          DataSize::bytes(config.spec.packet_bytes + fobs::core::kDataHeaderBytes +
                          fobs::sim::kUdpIpOverheadBytes),
          config.send_rate);
    }
  }

  /// A writability waiter left behind would call into a destroyed sender.
  ~RudpSender() { host_.withdraw_writable(this); }

  void start() {
    control_.set_on_message([this](const std::any& m) { on_control(m); });
    control_.set_on_connected([this] { step(); });
    control_.connect(receiver_, kRudpControlPort);
  }

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] TimePoint done_at() const { return done_at_; }
  [[nodiscard]] int passes() const { return pass_; }
  [[nodiscard]] std::int64_t packets_sent() const { return packets_sent_; }

 private:
  fobs::sim::Simulation& sim() { return host_.network().sim(); }

  void on_control(const std::any& message) {
    const auto* nak = std::any_cast<NakList>(&message);
    if (nak == nullptr || done_) return;
    if (nak->complete) {
      done_ = true;
      done_at_ = sim().now();
      return;
    }
    missing_ = *nak->missing;
    index_ = 0;
    awaiting_nak_ = false;
    step();
  }

  void step() {
    if (done_ || awaiting_nak_) return;
    if (index_ >= missing_.size()) {
      ++pass_;
      awaiting_nak_ = true;
      control_.send_message(16, PassDone{pass_});
      return;
    }
    const PacketSeq seq = missing_[index_];
    const std::int64_t len = config_.spec.payload_bytes(seq);
    if (!data_out_.writable(len + fobs::core::kDataHeaderBytes)) {
      host_.notify_writable(this, [this] { step(); });
      return;
    }
    DataPacketPayload payload{seq, static_cast<std::int32_t>(len), nullptr};
    data_out_.send_to(receiver_, kRudpDataPort, len + fobs::core::kDataHeaderBytes, payload);
    ++packets_sent_;
    ++index_;
    // CPU cost occupies the core; the pacing gap is idle wire time.
    const auto cpu_done = host_.reserve_cpu(
        host_.cpu().send_cost(DataSize::bytes(len + fobs::core::kDataHeaderBytes)));
    events_.at(std::max(cpu_done, sim().now() + rate_gap_), [this] { step(); });
  }

  Host& host_;
  /// Every event this end scheduled: destroying it cancels those not fired.
  fobs::core::DriverEvents events_;
  RudpConfig config_;
  fobs::sim::NodeId receiver_;
  UdpEndpoint data_out_;
  TcpConnection control_;
  std::vector<PacketSeq> missing_;
  std::size_t index_ = 0;
  int pass_ = 0;
  bool awaiting_nak_ = false;
  bool done_ = false;
  std::int64_t packets_sent_ = 0;
  Duration rate_gap_ = Duration::zero();
  TimePoint done_at_;
};

}  // namespace

RudpResult run_rudp_transfer(fobs::sim::Network& network, Host& src, Host& dst,
                             const RudpConfig& config) {
  auto& sim = network.sim();
  const auto start = sim.now();
  const auto deadline = start + kTimeout;

  RudpReceiver receiver(dst, config, src.id());
  RudpSender sender(src, config, dst.id());
  receiver.start();
  sender.start();

  // Only events due before the limit run: one at or past it would start
  // work the run no longer counts.
  while (!sender.done() && sim.next_event_time().value_or(deadline) < deadline) {
    sim.step();
  }

  RudpResult result;
  result.completed = sender.done();
  result.passes = sender.passes();
  result.packets_needed = config.spec.packet_count();
  result.packets_sent = sender.packets_sent();
  result.receiver_socket_drops = receiver.socket_drops();
  result.waste = config.spec.waste(result.packets_sent);
  if (receiver.complete()) {
    result.elapsed = receiver.completed_at() - start;
    if (result.elapsed > Duration::zero()) {
      result.goodput_mbps =
          fobs::util::rate_of(DataSize::bytes(config.spec.object_bytes), result.elapsed).mbps();
    }
  }
  return result;
}

}  // namespace fobs::baselines

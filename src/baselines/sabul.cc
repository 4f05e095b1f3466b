#include "baselines/sabul.h"

#include <any>
#include <deque>
#include <memory>
#include <unordered_set>
#include <vector>

#include "fobs/sim_driver.h"
#include "fobs/wire.h"
#include "net/tcp.h"
#include "net/udp.h"

namespace fobs::baselines {

namespace {

using fobs::core::DataPacketPayload;
using fobs::core::PacketSeq;
using fobs::net::TcpConnection;
using fobs::net::TcpListener;
using fobs::net::UdpEndpoint;
using fobs::sim::PortId;
using fobs::util::Bitmap;
using fobs::util::DataSize;
using fobs::util::TimePoint;

constexpr PortId kSabulDataPort = 6101;
constexpr PortId kSabulControlPort = 6102;
/// Receiver's UDP socket buffer, and the give-up time of a run.
constexpr std::int64_t kReceiverSocketBufferBytes = 256 * 1024;
constexpr Duration kTimeout = Duration::seconds(600);
/// Receiver report period (SABUL's SYN interval).
constexpr Duration kReportInterval = Duration::milliseconds(20);
/// Multiplicative slow-down on a lossy report / speed-up on a clean one.
constexpr double kBackoffFactor = 1.125;
constexpr double kSpeedupFactor = 0.975;
/// Ceiling of the rate-increase rule, as a multiple of initial_rate.
constexpr double kMaxRateFactor = 1.25;

struct SabulReport {
  std::uint64_t report_no = 0;
  std::int64_t total_received = 0;
  bool complete = false;
  std::shared_ptr<const std::vector<PacketSeq>> losses;  ///< newly detected
};

class SabulReceiver {
 public:
  SabulReceiver(Host& host, const SabulConfig& config, fobs::sim::NodeId sender)
      : host_(host),
        events_(host.network().sim()),
        config_(config),
        sender_(sender),
        received_(static_cast<std::size_t>(config.spec.packet_count())),
        data_in_(host, kSabulDataPort, kReceiverSocketBufferBytes),
        listener_(host, kSabulControlPort, fobs::net::TcpConfig{},
                  [this](std::unique_ptr<TcpConnection> conn) { control_ = std::move(conn); }) {}

  void start() {
    poll();
    arm_report_timer();
  }

  [[nodiscard]] bool complete() const { return received_.all_set(); }
  [[nodiscard]] TimePoint completed_at() const { return completed_at_; }
  [[nodiscard]] std::uint64_t reports_sent() const { return report_no_; }

 private:
  fobs::sim::Simulation& sim() { return host_.network().sim(); }

  void arm_report_timer() {
    events_.in(kReportInterval, [this] {
      if (!sent_complete_) {
        send_report();
        arm_report_timer();
      }
    });
  }

  void send_report() {
    if (control_ == nullptr) return;
    SabulReport report;
    report.report_no = ++report_no_;
    report.total_received = static_cast<std::int64_t>(received_.count());
    report.complete = received_.all_set();
    auto losses = std::make_shared<std::vector<PacketSeq>>(pending_losses_.begin(),
                                                           pending_losses_.end());
    // Stalled tail rescue: if data has flowed but nothing arrived for a
    // whole interval and we are not done, report every hole below the
    // highest seen packet so the sender can refill (SABUL's EXP-timer
    // behaviour). Never fires before the first packet, and never
    // invents holes above what was actually observed.
    if (losses->empty() && !report.complete && highest_seen_ >= 0 &&
        sim().now() - last_data_ >= kReportInterval) {
      // After a longer silence even the packets *above* highest_seen
      // must be presumed lost (an entirely-lost tail produces no gap to
      // detect), so widen the scan to the whole object.
      const bool long_quiet = sim().now() - last_data_ >= kReportInterval * 3;
      const PacketSeq scan_limit = long_quiet ? config_.spec.packet_count() - 1 : highest_seen_;
      std::size_t probe = 0;
      while (auto hole = received_.first_clear(probe)) {
        if (static_cast<PacketSeq>(*hole) > scan_limit) break;
        losses->push_back(static_cast<PacketSeq>(*hole));
        probe = *hole + 1;
        if (losses->size() >= 4096) break;
      }
    }
    pending_losses_.clear();
    const std::int64_t bytes = 24 + 8 * static_cast<std::int64_t>(losses->size());
    report.losses = std::move(losses);
    if (report.complete) sent_complete_ = true;
    control_->send_message(bytes, report);
  }

  void poll() {
    auto pkt = data_in_.try_recv();
    if (!pkt) {
      data_in_.set_rx_notify([this] { poll(); });
      return;
    }
    Duration busy = Duration::microseconds(1);
    if (const auto* data = std::any_cast<DataPacketPayload>(&pkt->payload)) {
      busy = host_.cpu().recv_cost(DataSize::bytes(data->len + fobs::core::kDataHeaderBytes));
      last_data_ = sim().now();
      const auto seq = data->seq;
      // Gap-based loss detection: a jump past highest_seen+1 marks the
      // skipped sequence numbers as (tentatively) lost.
      if (seq > highest_seen_ + 1) {
        for (PacketSeq s = highest_seen_ + 1; s < seq; ++s) pending_losses_.insert(s);
      }
      highest_seen_ = std::max(highest_seen_, seq);
      pending_losses_.erase(seq);
      const bool was_complete = received_.all_set();
      received_.set(static_cast<std::size_t>(seq));
      if (!was_complete && received_.all_set()) {
        completed_at_ = sim().now();
        send_report();  // immediate completion report
      }
    }
    events_.at(host_.reserve_cpu(busy), [this] { poll(); });
  }

  Host& host_;
  /// Every event this end scheduled: destroying it cancels those not fired.
  fobs::core::DriverEvents events_;
  SabulConfig config_;
  fobs::sim::NodeId sender_;
  Bitmap received_;
  UdpEndpoint data_in_;
  TcpListener listener_;
  std::unique_ptr<TcpConnection> control_;
  PacketSeq highest_seen_ = -1;
  std::unordered_set<PacketSeq> pending_losses_;
  std::uint64_t report_no_ = 0;
  bool sent_complete_ = false;
  TimePoint last_data_;
  TimePoint completed_at_;
};

class SabulSender {
 public:
  SabulSender(Host& host, const SabulConfig& config, fobs::sim::NodeId receiver)
      : host_(host),
        events_(host.network().sim()),
        config_(config),
        receiver_(receiver),
        data_out_(host),
        control_(host, fobs::net::TcpConfig{}) {
    const std::int64_t wire = config.spec.packet_bytes + fobs::core::kDataHeaderBytes +
                              fobs::sim::kUdpIpOverheadBytes;
    const DataRate ceiling = config.initial_rate * kMaxRateFactor;
    min_gap_ = fobs::util::transmission_time(DataSize::bytes(wire), ceiling);
    gap_ = fobs::util::transmission_time(DataSize::bytes(wire), config.initial_rate);
  }

  /// A writability waiter left behind would call into a destroyed sender.
  ~SabulSender() { host_.withdraw_writable(this); }

  void start() {
    control_.set_on_message([this](const std::any& m) { on_report(m); });
    control_.set_on_connected([this] { step(); });
    control_.connect(receiver_, kSabulControlPort);
  }

  [[nodiscard]] bool done() const { return done_; }
  [[nodiscard]] TimePoint done_at() const { return done_at_; }
  [[nodiscard]] std::int64_t packets_sent() const { return packets_sent_; }
  [[nodiscard]] double current_rate_mbps() const {
    const std::int64_t wire = config_.spec.packet_bytes + fobs::core::kDataHeaderBytes +
                              fobs::sim::kUdpIpOverheadBytes;
    if (gap_ <= Duration::zero()) return 0.0;
    return fobs::util::rate_of(DataSize::bytes(wire), gap_).mbps();
  }
  [[nodiscard]] std::uint64_t lossy_reports() const { return lossy_reports_; }

 private:
  fobs::sim::Simulation& sim() { return host_.network().sim(); }

  void on_report(const std::any& message) {
    const auto* report = std::any_cast<SabulReport>(&message);
    if (report == nullptr || done_) return;
    if (report->complete) {
      done_ = true;
      done_at_ = sim().now();
      return;
    }
    if (report->losses != nullptr && !report->losses->empty()) {
      ++lossy_reports_;
      for (PacketSeq s : *report->losses) {
        if (queued_rtx_.insert(s).second) rtx_queue_.push_back(s);
      }
      // Loss means congestion to SABUL: slow down.
      gap_ = gap_ * kBackoffFactor;
    } else {
      gap_ = std::max(min_gap_, gap_ * kSpeedupFactor);
    }
    if (idle_) {
      idle_ = false;
      step();
    }
  }

  void step() {
    if (done_) return;
    PacketSeq seq = -1;
    if (!rtx_queue_.empty()) {
      seq = rtx_queue_.front();
      rtx_queue_.pop_front();
      queued_rtx_.erase(seq);
    } else if (next_new_ < config_.spec.packet_count()) {
      seq = next_new_++;
    } else {
      // Everything sent once and no outstanding loss reports: wait for
      // the receiver's next report (or completion).
      idle_ = true;
      return;
    }
    const std::int64_t len = config_.spec.payload_bytes(seq);
    if (!data_out_.writable(len + fobs::core::kDataHeaderBytes)) {
      // Socket buffer full: requeue (front) and wait for writability.
      if (queued_rtx_.insert(seq).second) rtx_queue_.push_front(seq);
      host_.notify_writable(this, [this] { step(); });
      return;
    }
    DataPacketPayload payload{seq, static_cast<std::int32_t>(len), nullptr};
    data_out_.send_to(receiver_, kSabulDataPort, len + fobs::core::kDataHeaderBytes, payload);
    ++packets_sent_;
    // CPU cost occupies the core; the pacing gap is idle wire time.
    const auto cpu_done = host_.reserve_cpu(
        host_.cpu().send_cost(DataSize::bytes(len + fobs::core::kDataHeaderBytes)));
    events_.at(std::max(cpu_done, sim().now() + gap_), [this] { step(); });
  }

  Host& host_;
  /// Every event this end scheduled: destroying it cancels those not fired.
  fobs::core::DriverEvents events_;
  SabulConfig config_;
  fobs::sim::NodeId receiver_;
  UdpEndpoint data_out_;
  TcpConnection control_;
  std::deque<PacketSeq> rtx_queue_;
  std::unordered_set<PacketSeq> queued_rtx_;
  PacketSeq next_new_ = 0;
  Duration gap_;
  Duration min_gap_;
  bool idle_ = false;
  bool done_ = false;
  std::int64_t packets_sent_ = 0;
  std::uint64_t lossy_reports_ = 0;
  TimePoint done_at_;
};

}  // namespace

SabulResult run_sabul_transfer(fobs::sim::Network& network, Host& src, Host& dst,
                               const SabulConfig& config) {
  auto& sim = network.sim();
  const auto start = sim.now();
  const auto deadline = start + kTimeout;

  SabulReceiver receiver(dst, config, src.id());
  SabulSender sender(src, config, dst.id());
  receiver.start();
  sender.start();

  // Only events due before the limit run: one at or past it would start
  // work the run no longer counts.
  while (!sender.done() && sim.next_event_time().value_or(deadline) < deadline) {
    sim.step();
  }

  SabulResult result;
  result.completed = sender.done();
  result.packets_needed = config.spec.packet_count();
  result.packets_sent = sender.packets_sent();
  result.final_rate_mbps = sender.current_rate_mbps();
  result.loss_reports = sender.lossy_reports();
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

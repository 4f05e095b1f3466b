#include "fobs/sim_transfer.h"

#include <atomic>
#include <memory>
#include <optional>

#include "fobs/object.h"
#include "fobs/sim_driver.h"

namespace fobs::core {

namespace {

/// Transfer i of a run uses the four ports from kFobsPortBase + 100·i.
constexpr PortId kFobsPortBase = 7001;
constexpr PortId kPortBaseStride = 100;

/// Transfer ids are unique in the process, so a later run on the same
/// network and ports can tell an earlier run's stragglers from its own.
std::atomic<std::uint64_t> next_transfer_id{1};

/// One transfer's endpoints, buffers and end-of-run bookkeeping.
struct Flow {
  Flow(const SimTransfer& transfer, PortId port_base, TimePoint run_start)
      : config(transfer.config),
        object(config.carry_data ? make_pattern(config.spec.object_bytes, kDataSeed)
                                 : std::vector<std::uint8_t>{}),
        sink(config.carry_data ? static_cast<std::size_t>(config.spec.object_bytes) : 0, 0),
        id(next_transfer_id++),
        sender(transfer.sender, config.spec, config.sender, config.adaptive,
               config.carry_data ? object.data() : nullptr, transfer.receiver.id(), port_base,
               id),
        receiver(transfer.receiver, config.spec, config.receiver,
                 config.carry_data ? sink.data() : nullptr, transfer.sender.id(),
                 config.receiver_socket_buffer_bytes, port_base, id),
        start(run_start),
        deadline(run_start + config.timeout),
        stall_interval(config.timeout / kStallIntervals),
        next_check(run_start + stall_interval) {
    if (config.sender_tracer != nullptr) sender.set_tracer(config.sender_tracer);
    if (config.receiver_tracer != nullptr) receiver.set_tracer(config.receiver_tracer);
    // One injector shared by both drivers, so a single plan describes
    // the whole path: the sender applies the data schedule, the receiver
    // the ACK/control schedules and the crash point.
    if (!config.fault_plan.empty()) {
      faults.emplace(config.fault_plan);
      sender.set_fault_injector(&*faults);
      receiver.set_fault_injector(&*faults);
    }
  }

  /// True once the run is over for this transfer: finished, stalled or
  /// past its deadline at `now`. Stall checks run inline between event
  /// steps (no extra sim events, so clean-run schedules — and the golden
  /// packet counts — are untouched). A transfer dies only after
  /// kStallIntervals consecutive empty checks on the sender alongside
  /// an empty-or-complete receiver; the flat deadline stays as backstop.
  bool over(TimePoint now) {
    if (sender.finished()) return true;
    // Run stall checks due at or before now first: the final check of a
    // zero-progress run lands exactly on the deadline and must fire
    // before the flat backstop below declares a plain timeout.
    while (next_check <= now) {
      sender_streak = sender.on_stall_interval();
      receiver_streak = receiver.on_stall_interval();
      next_check = next_check + stall_interval;
    }
    if (sender_streak >= kStallIntervals &&
        (receiver_streak >= kStallIntervals || receiver.complete())) {
      stalled = true;
      return true;
    }
    return now >= deadline;
  }

  /// Ends the run for this transfer, stops both endpoints, and reports
  /// it.
  SimTransferResult end() {
    ended = true;
    sender.stop();
    receiver.stop();
    if (!sender.finished()) {
      if (config.sender_tracer != nullptr) {
        config.sender_tracer->record(telemetry::EventType::kTimeout);
      }
      if (config.receiver_tracer != nullptr && !receiver.complete()) {
        config.receiver_tracer->record(telemetry::EventType::kTimeout);
      }
    }
    SimTransferResult result;
    result.completed = sender.finished();
    result.receiver_complete = receiver.complete();
    result.packets_needed = config.spec.packet_count();
    result.packets_sent = sender.packets_sent();
    result.waste = config.spec.waste(result.packets_sent);
    result.receiver_socket_drops = receiver.socket_drops();
    result.acks_sent = receiver.acks_sent();
    result.duplicates_at_receiver = receiver.core().stats().duplicates;
    result.corrupt_drops = sender.corrupt_dropped() + receiver.corrupt_dropped();
    result.fallback_episodes = sender.fallback_episodes();
    result.packets_via_tcp = sender.packets_sent_via_tcp();
    result.stalled = stalled;
    if (receiver.complete()) {
      result.receiver_elapsed = receiver.completed_at() - start;
      if (result.receiver_elapsed > Duration::zero()) {
        result.goodput_mbps =
            fobs::util::rate_of(fobs::util::DataSize::bytes(config.spec.object_bytes),
                                result.receiver_elapsed)
                .mbps();
      }
    }
    if (sender.finished()) {
      result.sender_elapsed = sender.finished_at() - start;
    }
    if (config.carry_data && receiver.complete()) {
      result.data_verified = object == sink;
    }
    return result;
  }

  const SimTransferConfig& config;
  std::vector<std::uint8_t> object;
  std::vector<std::uint8_t> sink;
  std::uint64_t id;
  SimSender sender;
  SimReceiver receiver;
  std::optional<fobs::net::FaultInjector> faults;
  TimePoint start;
  TimePoint deadline;
  Duration stall_interval;
  TimePoint next_check;
  int sender_streak = 0;
  int receiver_streak = 0;
  bool stalled = false;
  bool ended = false;
};

}  // namespace

std::vector<SimTransferResult> run_sim_transfers(fobs::sim::Network& network,
                                                 const std::vector<SimTransfer>& transfers) {
  auto& sim = network.sim();
  const TimePoint start = sim.now();

  std::vector<std::unique_ptr<Flow>> flows;
  flows.reserve(transfers.size());
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const auto port_base = static_cast<PortId>(kFobsPortBase + kPortBaseStride * i);
    flows.push_back(std::make_unique<Flow>(transfers[i], port_base, start));
  }
  for (auto& flow : flows) flow->receiver.start();
  for (auto& flow : flows) flow->sender.start();

  std::vector<SimTransferResult> results(flows.size());
  std::size_t running = flows.size();
  while (running > 0) {
    // No event at or past a transfer's deadline runs for it: once none
    // is due before it, the transfer is judged at its deadline (stall
    // checks due by then first) and ends. Ending one cancels its TCP
    // timers, so the queue is peeked again before the next step.
    const auto next = sim.next_event_time();
    const std::size_t was_running = running;
    for (std::size_t i = 0; i < flows.size(); ++i) {
      Flow& flow = *flows[i];
      const TimePoint at = next && *next < flow.deadline ? sim.now() : flow.deadline;
      if (flow.ended || !flow.over(at)) continue;
      results[i] = flow.end();
      --running;
    }
    if (running == was_running) sim.step();
  }
  return results;
}

SimTransferResult run_sim_transfer(fobs::sim::Network& network, fobs::host::Host& sender_host,
                                   fobs::host::Host& receiver_host,
                                   const SimTransferConfig& config) {
  return run_sim_transfers(network, {{sender_host, receiver_host, config}}).front();
}

}  // namespace fobs::core

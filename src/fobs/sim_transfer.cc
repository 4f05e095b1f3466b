#include "fobs/sim_transfer.h"

#include <algorithm>
#include <cstring>
#include <optional>

#include "common/rng.h"

namespace fobs::core {

std::vector<std::uint8_t> make_pattern(std::int64_t bytes, std::uint64_t seed) {
  std::vector<std::uint8_t> data(static_cast<std::size_t>(bytes));
  fobs::util::Rng rng(seed);
  // Fill 8 bytes at a time; the tail reuses one final draw.
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(data.data() + i, &v, 8);
  }
  if (i < data.size()) {
    const std::uint64_t v = rng.next();
    std::memcpy(data.data() + i, &v, data.size() - i);
  }
  return data;
}

SimTransferResult run_sim_transfer(fobs::sim::Network& network, fobs::host::Host& sender_host,
                                   fobs::host::Host& receiver_host,
                                   const SimTransferConfig& config) {
  auto& sim = network.sim();
  const TimePoint start = sim.now();
  const TimePoint deadline = start + config.timeout;

  std::vector<std::uint8_t> object;
  std::vector<std::uint8_t> sink;
  if (config.carry_data) {
    object = make_pattern(config.spec.object_bytes, kDataSeed);
    sink.assign(static_cast<std::size_t>(config.spec.object_bytes), 0);
  }

  SimSender sender(sender_host, config.spec, config.sender,
                   config.carry_data ? object.data() : nullptr, receiver_host.id());
  SimReceiver receiver(receiver_host, config.spec, config.receiver,
                       config.carry_data ? sink.data() : nullptr, sender_host.id(),
                       config.receiver_socket_buffer_bytes);
  if (config.sender_tracer != nullptr) sender.set_tracer(config.sender_tracer);
  if (config.receiver_tracer != nullptr) receiver.set_tracer(config.receiver_tracer);

  // One injector shared by both drivers, so a single plan describes the
  // whole path: the sender applies the data schedule, the receiver the
  // ACK/control schedules and the crash point.
  std::optional<fobs::net::FaultInjector> faults;
  if (!config.fault_plan.empty()) {
    faults.emplace(config.fault_plan);
    sender.set_fault_injector(&*faults);
    receiver.set_fault_injector(&*faults);
  }

  bool done = false;
  sender.set_on_finished([&done] { done = true; });

  receiver.start();
  sender.start();

  // Stall detection: progress checks run inline between event steps (no
  // extra sim events, so clean-run schedules — and the golden packet
  // counts — are untouched). A transfer dies only after
  // kStallIntervals consecutive empty checks on the sender alongside
  // an empty-or-complete receiver; the flat deadline stays as backstop.
  const Duration stall_interval = config.timeout / kStallIntervals;
  TimePoint next_check = start + stall_interval;
  bool stalled = false;
  int sender_streak = 0;
  int receiver_streak = 0;
  while (!done) {
    // Run stall checks due at or before now first: the final check of a
    // zero-progress run lands exactly on the deadline and must fire
    // before the flat backstop below declares a plain timeout.
    while (next_check <= sim.now()) {
      sender_streak = sender.on_stall_interval();
      receiver_streak = receiver.on_stall_interval();
      next_check = next_check + stall_interval;
    }
    if (sender_streak >= kStallIntervals &&
        (receiver_streak >= kStallIntervals || receiver.complete())) {
      stalled = true;
      break;
    }
    if (sim.now() >= deadline) break;
    if (!sim.step()) break;
  }

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
  result.packets_needed = config.spec.packet_count();
  result.packets_sent = sender.core().stats().packets_sent;
  result.waste = sender.core().waste();
  result.receiver_socket_drops = receiver.socket_drops();
  result.acks_sent = receiver.acks_sent();
  result.duplicates_at_receiver = receiver.core().stats().duplicates;
  result.corrupt_drops = sender.corrupt_acks_dropped() + receiver.corrupt_data_dropped();
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

}  // namespace fobs::core

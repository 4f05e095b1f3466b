// Anatomy of a FOBS transfer: attach event tracers to both endpoints,
// run one short-haul transfer, and print the bottleneck link's delivery
// and drop counts plus a timeline from the receiver's trace — where the
// drops happened and how the goodput evolved.
//
//   ./transfer_anatomy [ack_frequency]   (a positive integer, default 1)
//
// Also demonstrates the telemetry subsystem: both endpoints carry an
// EventTracer, and the protocol-event summaries print after the
// timeline. Set FOBS_TRACE_DIR=<dir> to dump the full JSONL traces.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>

#include "exp/runner.h"
#include "fobs/sim_transfer.h"
#include "telemetry/trace.h"

int main(int argc, char** argv) {
  using namespace fobs;
  char* end = nullptr;
  const std::int64_t ack_frequency = argc > 1 ? std::strtoll(argv[1], &end, 10) : 1;
  if (argc > 2 || (argc > 1 && (end == argv[1] || *end != '\0')) || ack_frequency < 1 ||
      ack_frequency > INT32_MAX) {
    std::fprintf(stderr, "usage: %s [ack_frequency >= 1]\n", argv[0]);
    return 2;
  }

  auto spec = exp::spec_for(exp::PathId::kShortHaul);
  exp::Testbed bed(spec, 21);

  telemetry::EventTracer sender_trace;
  telemetry::EventTracer receiver_trace;
  core::SimTransferConfig config;
  config.spec = {16 * 1024 * 1024, 1024};
  config.receiver.ack_frequency = ack_frequency;
  config.timeout = util::Duration::seconds(120);
  config.carry_data = false;
  config.sender_tracer = &sender_trace;
  config.receiver_tracer = &receiver_trace;
  const auto result = core::run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);

  std::printf("FOBS transfer anatomy (short haul, ack frequency %lld)\n",
              static_cast<long long>(ack_frequency));
  std::printf("finished: %s in %.2f s; sent %lld for %lld needed (waste %.1f%%)\n",
              result.completed ? "yes" : "NO", bed.sim().now().seconds(),
              static_cast<long long>(result.packets_sent),
              static_cast<long long>(result.packets_needed), 100.0 * result.waste);
  const auto& backbone = bed.backbone().stats();
  std::printf("backbone: %llu delivered, %llu random drops, %llu overflow drops\n",
              static_cast<unsigned long long>(backbone.packets_delivered),
              static_cast<unsigned long long>(backbone.drops_random),
              static_cast<unsigned long long>(backbone.drops_overflow));
  std::printf("receiver socket-buffer drops: %llu\n\n",
              static_cast<unsigned long long>(result.receiver_socket_drops));

  // The timeline comes from the receiver's trace: packet_placed carries
  // the cumulative count of unique packets, drop_while_acking the socket
  // drops since the last one (the Figure 1 mechanism).
  std::printf("timeline (100 ms buckets): received packets | new socket drops\n");
  const auto events = receiver_trace.snapshot();
  const std::int64_t bucket_ns = util::Duration::milliseconds(100).ns();
  std::size_t next = 0;
  std::int64_t received = 0;
  std::int64_t dropped = 0;
  std::int64_t prev_received = 0;
  std::int64_t prev_drops = 0;
  for (std::int64_t end = bucket_ns; end <= bed.sim().now().ns(); end += bucket_ns) {
    for (; next < events.size() && events[next].t_ns <= end; ++next) {
      if (events[next].type == telemetry::EventType::kPacketPlaced) {
        received = events[next].value;
      } else if (events[next].type == telemetry::EventType::kDropWhileAcking) {
        dropped += events[next].value;
      }
    }
    const std::int64_t bar = (received - prev_received) / 40;
    std::printf("t=%4.1fs %6lld new ", static_cast<double>(end) / 1e9,
                static_cast<long long>(received - prev_received));
    for (std::int64_t b = 0; b < bar && b < 60; ++b) std::printf("#");
    if (dropped > prev_drops) {
      std::printf("   (+%lld drops)", static_cast<long long>(dropped - prev_drops));
    }
    std::printf("\n");
    prev_received = received;
    prev_drops = dropped;
  }
  std::printf("\nsender events:\n");
  sender_trace.summary().print(std::cout);
  std::printf("\nreceiver events:\n");
  receiver_trace.summary().print(std::cout);
  if (const char* dir = std::getenv("FOBS_TRACE_DIR"); dir != nullptr && dir[0] != '\0') {
    const std::string base = std::string(dir) + "/anatomy";
    const bool ok = sender_trace.write_jsonl_file(base + ".sender.jsonl") &&
                    receiver_trace.write_jsonl_file(base + ".receiver.jsonl");
    std::printf("%s traces %s.{sender,receiver}.jsonl\n", ok ? "wrote" : "FAILED writing",
                base.c_str());
  }

  std::printf("\nTip: run with ack frequency 64 to see the drop column vanish and the\n"
              "bars reach the 100 Mb/s ceiling (the Figure 1 story, one bucket at a time).\n");
  return result.completed ? 0 : 1;
}

// Telemetry subsystem tests: EventTracer semantics, the metrics
// registry under concurrency, and — most importantly — schema
// validation of the JSONL traces every transfer path emits. The schema
// checks parse each emitted line back into its fields and require an
// exact re-serialization match, so any drift in the wire format of the
// traces (docs/TELEMETRY.md) fails here first.
#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "baselines/tcp_bulk.h"
#include "exp/runner.h"
#include "exp/testbeds.h"
#include "fobs/object.h"
#include "fobs/posix/posix_transfer.h"
#include "fobs/sim_transfer.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace fobs::telemetry {
namespace {

// ---------------------------------------------------------------------------
// JSONL schema validation helpers.

struct ParsedLine {
  long long t_ns = 0;
  std::string event;
  long long seq = 0;
  long long value = 0;
};

/// Parses one trace line; nullopt unless the line is EXACTLY
///   {"t_ns":<int>,"event":"<name>","seq":<int>,"value":<int>}
/// (verified by re-serializing the parsed fields and comparing).
std::optional<ParsedLine> parse_trace_line(const std::string& line) {
  ParsedLine parsed;
  char event[64] = {0};
  if (std::sscanf(line.c_str(), "{\"t_ns\":%lld,\"event\":\"%63[a-z_]\",\"seq\":%lld,\"value\":%lld}",
                  &parsed.t_ns, event, &parsed.seq, &parsed.value) != 4) {
    return std::nullopt;
  }
  parsed.event = event;
  char round_trip[256];
  std::snprintf(round_trip, sizeof round_trip, "{\"t_ns\":%lld,\"event\":\"%s\",\"seq\":%lld,\"value\":%lld}",
                parsed.t_ns, event, parsed.seq, parsed.value);
  if (line != round_trip) return std::nullopt;
  return parsed;
}

bool is_known_event_name(const std::string& name) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    if (name == to_string(static_cast<EventType>(i))) return true;
  }
  return false;
}

/// Asserts every line of a tracer's JSONL export parses, names a known
/// event, and carries non-decreasing timestamps. Returns the lines.
std::vector<ParsedLine> validate_jsonl(const EventTracer& tracer) {
  std::ostringstream os;
  tracer.write_jsonl(os);
  std::istringstream is(os.str());
  std::vector<ParsedLine> lines;
  std::string line;
  long long prev_t = 0;
  while (std::getline(is, line)) {
    const auto parsed = parse_trace_line(line);
    EXPECT_TRUE(parsed.has_value()) << "malformed trace line: " << line;
    if (!parsed) continue;
    EXPECT_TRUE(is_known_event_name(parsed->event)) << "unknown event: " << parsed->event;
    EXPECT_GE(parsed->t_ns, prev_t) << "timestamps went backwards at: " << line;
    prev_t = parsed->t_ns;
    lines.push_back(*parsed);
  }
  EXPECT_EQ(lines.size(), tracer.size());
  return lines;
}

// ---------------------------------------------------------------------------
// EventTracer semantics.

TEST(EventTracer, RecordsEventsWithInjectedClock) {
  std::int64_t now = 0;
  EventTracer tracer([&now] { return now; });
  tracer.record(EventType::kTransferStart, -1, 42);
  now = 1'000;
  tracer.record(EventType::kBatchSent, -1, 2);
  now = 2'000;
  tracer.record(EventType::kAckProcessed, 7, 64);

  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 3u);
  EXPECT_EQ(events[0].type, EventType::kTransferStart);
  EXPECT_EQ(events[0].t_ns, 0);
  EXPECT_EQ(events[0].value, 42);
  EXPECT_EQ(events[1].t_ns, 1'000);
  EXPECT_EQ(events[2].t_ns, 2'000);
  EXPECT_EQ(events[2].seq, 7);
  EXPECT_EQ(tracer.count(EventType::kAckProcessed), 1);
  EXPECT_EQ(tracer.count(EventType::kTimeout), 0);
}

TEST(EventTracer, RetentionCapKeepsCountsExact) {
  EventTracer tracer({}, /*max_events=*/4);
  for (int i = 0; i < 10; ++i) tracer.record(EventType::kBatchSent, i);
  EXPECT_EQ(tracer.size(), 4u);
  EXPECT_EQ(tracer.dropped(), 6u);
  // Counts stay exact past the cap — the summary is still truthful.
  EXPECT_EQ(tracer.count(EventType::kBatchSent), 10);
  const auto events = tracer.snapshot();
  ASSERT_EQ(events.size(), 4u);
  EXPECT_EQ(events[0].seq, 0);  // the oldest events are the ones kept
  EXPECT_EQ(events[3].seq, 3);
}

TEST(EventTracer, ClearResetsEverything) {
  EventTracer tracer({}, 2);
  tracer.record(EventType::kError);
  tracer.record(EventType::kError);
  tracer.record(EventType::kError);
  tracer.clear();
  EXPECT_EQ(tracer.size(), 0u);
  EXPECT_EQ(tracer.dropped(), 0u);
  EXPECT_EQ(tracer.count(EventType::kError), 0);
}

TEST(EventTracer, SummaryListsOneRowPerObservedType) {
  EventTracer tracer;
  tracer.record_at(10, EventType::kTransferStart);
  tracer.record_at(20, EventType::kBatchSent);
  tracer.record_at(30, EventType::kBatchSent);
  const auto table = tracer.summary();
  // Header-free row count: only the two observed types appear.
  EXPECT_EQ(table.row_count(), 2u);
}

TEST(EventTracer, JsonlExportMatchesSnapshot) {
  EventTracer tracer;
  tracer.record_at(5, EventType::kPacketPlaced, 3, 1);
  tracer.record_at(9, EventType::kCompletion, -1, 100);
  const auto lines = validate_jsonl(tracer);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0].event, "packet_placed");
  EXPECT_EQ(lines[0].seq, 3);
  EXPECT_EQ(lines[1].event, "completion");
  EXPECT_EQ(lines[1].value, 100);
}

TEST(EventTracer, EveryEventTypeHasAUniqueWireName) {
  for (std::size_t i = 0; i < kEventTypeCount; ++i) {
    const std::string name = to_string(static_cast<EventType>(i));
    EXPECT_FALSE(name.empty());
    for (std::size_t j = 0; j < i; ++j) {
      EXPECT_NE(name, to_string(static_cast<EventType>(j)));
    }
  }
}

// ---------------------------------------------------------------------------
// Metrics registry.

TEST(Metrics, CounterHistogramBasics) {
  MetricsRegistry registry;
  auto& transfers = registry.counter("transfers");
  transfers.inc();
  transfers.inc(4);
  EXPECT_EQ(transfers.value(), 5);

  auto& latency = registry.histogram("latency_ms", {10, 100});
  latency.observe(5);
  latency.observe(50);
  latency.observe(500);
  EXPECT_EQ(latency.count(), 3);
  EXPECT_EQ(latency.sum(), 555);
  ASSERT_EQ(latency.bucket_count(), 3u);
  EXPECT_EQ(latency.bucket(0), 1);  // <= 10
  EXPECT_EQ(latency.bucket(1), 1);  // <= 100
  EXPECT_EQ(latency.bucket(2), 1);  // overflow
  EXPECT_DOUBLE_EQ(latency.mean(), 185.0);

  // Same name, same kind: the identical instrument comes back.
  EXPECT_EQ(&registry.counter("transfers"), &transfers);
  EXPECT_EQ(registry.size(), 2u);
}

TEST(Metrics, HistogramBoundariesAreInclusive) {
  MetricsRegistry registry;
  auto& h = registry.histogram("h", {0, 10});
  h.observe(0);    // lands in bucket 0 (<= 0)
  h.observe(10);   // lands in bucket 1 (<= 10)
  h.observe(11);   // overflow
  EXPECT_EQ(h.bucket(0), 1);
  EXPECT_EQ(h.bucket(1), 1);
  EXPECT_EQ(h.bucket(2), 1);
}

TEST(Metrics, SnapshotAndJsonlCoverEveryInstrument) {
  MetricsRegistry registry;
  registry.counter("a").inc(3);
  registry.histogram("c", {5}).observe(4);
  const auto samples = registry.snapshot();
  ASSERT_EQ(samples.size(), 2u);
  EXPECT_EQ(samples[0].name, "a");
  EXPECT_EQ(samples[0].value, 3);
  EXPECT_EQ(samples[1].kind, MetricSample::Kind::kHistogram);
  EXPECT_EQ(samples[1].value, 1);  // histogram count
  EXPECT_EQ(samples[1].sum, 4);

  std::ostringstream os;
  registry.write_jsonl(os);
  std::istringstream is(os.str());
  std::string line;
  std::size_t lines = 0;
  while (std::getline(is, line)) {
    EXPECT_EQ(line.front(), '{');
    EXPECT_EQ(line.back(), '}');
    EXPECT_NE(line.find("\"metric\":"), std::string::npos) << line;
    EXPECT_NE(line.find("\"kind\":"), std::string::npos) << line;
    ++lines;
  }
  EXPECT_EQ(lines, 2u);
}

// The registry's core concurrency contract: writers never lose updates
// and never tear, even with snapshot readers running alongside.
TEST(Metrics, ConcurrentHammerLosesNothing) {
  constexpr int kThreads = 8;
  constexpr int kOpsPerThread = 20'000;
  MetricsRegistry registry;
  std::atomic<bool> stop{false};

  // A reader thread snapshots continuously while writers hammer.
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto samples = registry.snapshot();
      for (const auto& s : samples) {
        EXPECT_GE(s.value, 0);
      }
    }
  });

  std::vector<std::thread> writers;
  writers.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&registry, t] {
      // Half the threads share instruments; half register their own
      // (exercising concurrent registration against the map mutex).
      auto& shared = registry.counter("shared");
      auto& own = registry.counter("own." + std::to_string(t % 4));
      auto& hist = registry.histogram("hist", {8, 64, 512});
      for (int i = 0; i < kOpsPerThread; ++i) {
        shared.inc();
        own.inc();
        hist.observe(i % 1024);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();

  EXPECT_EQ(registry.counter("shared").value(), kThreads * kOpsPerThread);
  std::int64_t own_total = 0;
  for (int t = 0; t < 4; ++t) own_total += registry.counter("own." + std::to_string(t)).value();
  EXPECT_EQ(own_total, kThreads * kOpsPerThread);
  auto& hist = registry.histogram("hist", {8, 64, 512});
  EXPECT_EQ(hist.count(), kThreads * kOpsPerThread);
  std::int64_t bucket_total = 0;
  for (std::size_t b = 0; b < hist.bucket_count(); ++b) bucket_total += hist.bucket(b);
  EXPECT_EQ(bucket_total, hist.count());
}

// The tracer is shared between a driver thread and (potentially) a
// monitoring thread; concurrent record + snapshot must stay coherent.
TEST(EventTracer, ConcurrentRecordAndSnapshot) {
  constexpr int kThreads = 4;
  constexpr int kEventsPerThread = 10'000;
  EventTracer tracer;
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load(std::memory_order_relaxed)) {
      const auto events = tracer.snapshot();
      EXPECT_LE(events.size(), static_cast<std::size_t>(kThreads) * kEventsPerThread);
    }
  });
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&tracer] {
      for (int i = 0; i < kEventsPerThread; ++i) {
        tracer.record(EventType::kPacketPlaced, i);
      }
    });
  }
  for (auto& w : writers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(tracer.count(EventType::kPacketPlaced), kThreads * kEventsPerThread);
  EXPECT_EQ(tracer.size() + tracer.dropped(),
            static_cast<std::size_t>(kThreads) * kEventsPerThread);
}

// ---------------------------------------------------------------------------
// End-to-end: every transfer path emits a schema-valid JSONL trace.

TEST(TraceSchema, SimTransferEmitsValidJsonl) {
  auto spec = exp::spec_for(exp::PathId::kShortHaul);
  exp::Testbed bed(spec, 7);

  EventTracer sender_trace;
  EventTracer receiver_trace;
  core::SimTransferConfig config;
  config.spec = {2 * 1024 * 1024, 1024};
  config.carry_data = false;
  config.sender_tracer = &sender_trace;
  config.receiver_tracer = &receiver_trace;
  const auto result = core::run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
  ASSERT_TRUE(result.completed);

  const auto sender_lines = validate_jsonl(sender_trace);
  const auto receiver_lines = validate_jsonl(receiver_trace);
  ASSERT_FALSE(sender_lines.empty());
  ASSERT_FALSE(receiver_lines.empty());
  EXPECT_EQ(sender_lines.front().event, "transfer_start");
  EXPECT_EQ(receiver_lines.front().event, "transfer_start");
  EXPECT_EQ(sender_trace.count(EventType::kCompletion), 1);
  EXPECT_EQ(receiver_trace.count(EventType::kCompletion), 1);

  // Trace counts agree with the transfer's own accounting.
  EXPECT_EQ(receiver_trace.count(EventType::kPacketPlaced), result.packets_needed);
  EXPECT_EQ(receiver_trace.count(EventType::kDuplicate), result.duplicates_at_receiver);
  EXPECT_EQ(receiver_trace.count(EventType::kAckSent),
            static_cast<std::int64_t>(result.acks_sent));
  EXPECT_GT(sender_trace.count(EventType::kBatchSent), 0);
}

TEST(TraceSchema, TcpBaselineEmitsValidJsonl) {
  auto spec = exp::spec_for(exp::PathId::kShortHaul);
  exp::Testbed bed(spec, 3);
  EventTracer trace;
  const auto result = fobs::baselines::run_tcp_transfers(
      bed.network(), {{bed.src(), bed.dst(), 512 * 1024}}, fobs::baselines::tcp_with_lwe(),
      &trace);
  ASSERT_TRUE(result.completed);
  const auto lines = validate_jsonl(trace);
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines.front().event, "transfer_start");
  EXPECT_EQ(lines.back().event, "completion");
  EXPECT_GT(lines.back().t_ns, lines.front().t_ns);
}

TEST(TraceSchema, PosixTransferEmitsValidJsonl) {
  const std::int64_t object_bytes = 256 * 1024;
  const auto object = core::make_pattern(object_bytes, 0xF0B5);
  std::vector<std::uint8_t> sink(object.size(), 0);

  EventTracer sender_trace;
  EventTracer receiver_trace;

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = 29050;
  recv_opts.control_port = 29051;
  recv_opts.endpoint.timeout_ms = 30'000;
  recv_opts.endpoint.tracer = &receiver_trace;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;
  send_opts.endpoint.tracer = &sender_trace;

  posix::TransferResult recv_result;
  std::thread receiver_thread([&] {
    recv_result = posix::receive_object(recv_opts, std::span<std::uint8_t>(sink));
  });
  const auto send_result =
      posix::send_object(send_opts, std::span<const std::uint8_t>(object));
  receiver_thread.join();
  ASSERT_TRUE(send_result.completed()) << send_result.error;
  ASSERT_TRUE(recv_result.completed()) << recv_result.error;

  const auto sender_lines = validate_jsonl(sender_trace);
  const auto receiver_lines = validate_jsonl(receiver_trace);
  ASSERT_FALSE(sender_lines.empty());
  ASSERT_FALSE(receiver_lines.empty());
  EXPECT_EQ(sender_lines.front().event, "transfer_start");
  EXPECT_EQ(receiver_lines.front().event, "transfer_start");
  EXPECT_EQ(sender_trace.count(EventType::kCompletion), 1);
  EXPECT_EQ(receiver_trace.count(EventType::kCompletion), 1);
  EXPECT_EQ(sender_trace.count(EventType::kTimeout), 0);
  EXPECT_EQ(receiver_trace.count(EventType::kPacketPlaced),
            recv_result.flows.at(0).packets_received);
}

}  // namespace
}  // namespace fobs::telemetry

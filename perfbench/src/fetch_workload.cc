// Loopback fetch workloads (fetch_1k, fetch_8k_x2): a FileServer and
// closed-loop fetch_file calls in one process, so process CPU time
// covers both ends of every transfer. A fetch counts only once its
// output matches the seeded source object.
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <memory>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "fobs/object.h"
#include "fobs/posix/fileserver.h"
#include "fobs/stripe/striped_transfer.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"
#include "workloads.h"

namespace perfbench {

namespace {

using fobs::core::TransferObject;

constexpr const char* kObjectName = "object.bin";
// Ports above the workload's port base; run.py checks the whole span.
constexpr std::uint16_t kControlPortCount = 32;
constexpr std::uint16_t kDataPortOffset = 40;
/// Set-up repetitions; setup_s is their median.
constexpr int kSetups = 3;
/// fetch_ms_p90 needs at least ten samples beyond it.
constexpr std::size_t kMinFetches = 100;
/// A run stops early after this many failed fetches.
constexpr std::int64_t kMaxFailures = 10;
constexpr double kGiB = 1024.0 * 1024.0 * 1024.0;

// Registry instruments the per-layer numbers derive from. The registry
// is process-global; fetches run one at a time and each waits for the
// server's session to end, so a delta covers exactly one fetch.
enum CounterId : std::size_t {
  kPacketsSent,
  kDuplicates,
  kSessions,
  kSyscalls,
  kDatagrams,      ///< fobs.io.datagrams_per_syscall: datagrams moved
  kDatagramCalls,  ///< fobs.io.datagrams_per_syscall: syscalls counted
  kCounterIds,
};
using Counters = std::array<std::int64_t, kCounterIds>;

Counters read_counters() {
  static constexpr std::array<const char*, kDatagrams> kNames = {
      "fobs.posix.sender.packets_sent", "fobs.posix.receiver.duplicates",
      "fobs.engine.sessions_submitted", "fobs.io.syscalls"};
  auto& registry = fobs::telemetry::MetricsRegistry::global();
  Counters counters{};
  for (std::size_t i = 0; i < kNames.size(); ++i) {
    counters[i] = registry.counter(kNames[i]).value();
  }
  for (const auto& sample : registry.snapshot()) {
    if (sample.name == "fobs.io.datagrams_per_syscall") {
      counters[kDatagrams] = sample.sum;
      counters[kDatagramCalls] = sample.value;
    }
  }
  return counters;
}

struct FetchSample {
  bool ok = false;
  double wall_ms = 0.0;        ///< the whole fetch_file call
  double transfer_ms = 0.0;    ///< receiver-side transfer time, from FetchResult
  double cpu_s = 0.0;          ///< process CPU over the call and the server's wind-down
  Counters delta{};            ///< registry change over the same interval
  std::int64_t acks_sent = 0;  ///< from the client's tracer; traced fetches only
};

bool make_dir(const std::string& path) {
  return ::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST;
}

/// Flips the byte at `offset` of the file at `path` in place.
bool flip_byte_at(const std::string& path, off_t offset) {
  const int fd = ::open(path.c_str(), O_RDWR);
  if (fd < 0) return false;
  std::uint8_t byte = 0;
  bool ok = ::pread(fd, &byte, 1, offset) == 1;
  byte ^= 0xFF;
  ok = ok && ::pwrite(fd, &byte, 1, offset) == 1;
  ::close(fd);
  return ok;
}

/// The served object, its FileServer, and the fetch client's output.
class FetchBench {
 public:
  FetchBench(const RunConfig& config, const FetchGeometry& geometry, Report& report)
      : config_(config), geometry_(geometry), report_(report) {}

  /// Writes the seeded object into the served directory.
  bool prepare();
  bool start_server();
  void stop_server() { server_.reset(); }
  /// One fetch_file call, its output check, and cleanup. Counts the
  /// attempt, and any failure by reason, in the report.
  FetchSample fetch(fobs::telemetry::EventTracer* tracer, bool flip_byte);
  [[nodiscard]] std::string served_path() const { return serve_dir_ + "/" + kObjectName; }

 private:
  [[nodiscard]] bool wait_server_idle() const;
  [[nodiscard]] std::vector<std::string> leftover_paths() const;
  [[nodiscard]] std::string check_output(const fobs::posix::FetchResult& result,
                                         bool flip_byte) const;

  const RunConfig& config_;
  FetchGeometry geometry_;
  Report& report_;
  std::string serve_dir_;
  std::string out_path_;
  std::uint64_t source_checksum_ = 0;
  std::optional<TransferObject> source_;  ///< read-only mapping of the served file
  std::unique_ptr<fobs::posix::FileServer> server_;
};

bool FetchBench::prepare() {
  serve_dir_ = config_.scratch + "/serve";
  const std::string client_dir = config_.scratch + "/client";
  if (!make_dir(serve_dir_) || !make_dir(client_dir)) return false;
  out_path_ = client_dir + "/" + kObjectName;
  {
    const auto object = TransferObject::pattern(geometry_.object_bytes, config_.seed);
    if (!object.write_to_file(served_path())) return false;
    source_checksum_ = object.checksum();
  }
  source_ = TransferObject::map_file(served_path());
  return source_.has_value();
}

bool FetchBench::start_server() {
  fobs::posix::FileServerOptions options;
  options.dir = serve_dir_;
  options.catalog_port = config_.port_base;
  options.control_port_base = static_cast<std::uint16_t>(config_.port_base + 1);
  options.control_port_count = kControlPortCount;
  options.quiet = true;
  options.endpoint.packet_bytes = geometry_.packet_bytes;
  server_ = std::make_unique<fobs::posix::FileServer>(options);
  if (server_->start()) return true;
  server_.reset();
  return false;
}

bool FetchBench::wait_server_idle() const {
  const auto deadline = Clock::now() + std::chrono::seconds(10);
  while (server_->transfers_completed() + server_->transfers_failed() <
         server_->transfers_started()) {
    if (Clock::now() > deadline) return false;
    std::this_thread::sleep_for(std::chrono::microseconds(50));
  }
  return true;
}

std::vector<std::string> FetchBench::leftover_paths() const {
  const std::string checkpoint = out_path_ + ".ckpt";
  std::vector<std::string> paths = {out_path_ + ".part", checkpoint};
  for (int i = 0; i < geometry_.stripes; ++i) {
    paths.push_back(fobs::posix::stripe_checkpoint_path(checkpoint, i));
  }
  return paths;
}

std::string FetchBench::check_output(const fobs::posix::FetchResult& result,
                                     bool flip_byte) const {
  if (!result.completed()) return std::string("status_") + fobs::posix::to_string(result.status);
  if (result.bytes != geometry_.object_bytes) return "size_mismatch";
  if (result.checksum != source_checksum_) return "checksum_mismatch";
  if (geometry_.stripes > 1 &&
      (result.fallback_single_flow || result.stripes != geometry_.stripes)) {
    return "stripe_fallback";
  }
  for (const std::string& path : leftover_paths()) {
    if (::access(path.c_str(), F_OK) == 0) {
      return path.ends_with(".part") ? "leftover_part" : "leftover_ckpt";
    }
  }
  if (flip_byte && !flip_byte_at(out_path_, static_cast<off_t>(geometry_.object_bytes / 2))) {
    return "flip_failed";
  }
  const auto fetched = TransferObject::map_file(out_path_);
  if (!fetched || fetched->size() != source_->size() ||
      std::memcmp(fetched->view().data(), source_->view().data(),
                  static_cast<std::size_t>(source_->size())) != 0) {
    return "content_mismatch";
  }
  return {};
}

FetchSample FetchBench::fetch(fobs::telemetry::EventTracer* tracer, bool flip_byte) {
  fobs::posix::FetchOptions options;
  options.catalog_port = config_.port_base;
  options.name = kObjectName;
  options.out_path = out_path_;
  options.data_port = static_cast<std::uint16_t>(config_.port_base + kDataPortOffset);
  options.quiet = true;
  options.stripes = geometry_.stripes;
  options.endpoint.packet_bytes = geometry_.packet_bytes;
  options.endpoint.tracer = tracer;

  FetchSample sample;
  const Counters before = read_counters();
  const double cpu_before = process_cpu_seconds();
  const auto start = Clock::now();
  const fobs::posix::FetchResult result = fobs::posix::fetch_file(options);
  sample.wall_ms = seconds_since(start) * 1e3;
  const bool idle = wait_server_idle();
  sample.cpu_s = process_cpu_seconds() - cpu_before;
  const Counters after = read_counters();
  for (std::size_t i = 0; i < sample.delta.size(); ++i) sample.delta[i] = after[i] - before[i];
  if (result.goodput_mbps > 0) {
    sample.transfer_ms =
        static_cast<double>(result.bytes) * 8.0 / (result.goodput_mbps * 1e6) * 1e3;
  }
  if (tracer != nullptr) sample.acks_sent = tracer->count(fobs::telemetry::EventType::kAckSent);

  const std::string failure = idle ? check_output(result, flip_byte) : "server_not_idle";
  std::remove(out_path_.c_str());
  for (const std::string& path : leftover_paths()) std::remove(path.c_str());
  ++report_.attempted;
  if (!failure.empty()) report_.fail(failure);
  sample.ok = failure.empty();
  return sample;
}

/// Counts a failure that stopped the run before a fetch could start.
void fail_setup(Report& report, const char* reason) {
  ++report.attempted;
  report.fail(reason);
}

double object_megabits(const FetchGeometry& geometry) {
  return static_cast<double>(geometry.object_bytes) * 8.0 / 1e6;
}

/// The traced run's fetch path: pairs of untraced and traced fetches for
/// 60% of --seconds, then the layer replays at `geometry`.
void trace_fetch_path(const RunConfig& config, const FetchGeometry& geometry, SpanLog& spans,
                      std::uint64_t parent, Report& report) {
  const SpanScope path(spans, "fetch_path", parent);
  FetchBench bench(config, geometry, report);
  if (!bench.prepare()) return fail_setup(report, "input_write");
  {
    const SpanScope span(spans, "server_start", path.id());
    if (!bench.start_server()) return fail_setup(report, "server_start");
  }
  {
    const SpanScope span(spans, "fetch_file.warm_up", path.id(), 0);
    if (!bench.fetch(nullptr, false).ok) return;
  }

  // Pairs of one untraced and one traced fetch (an EventTracer on the
  // client endpoint), alternating which goes first. The ratio of their
  // medians is the tracing overhead.
  std::vector<FetchSample> samples;
  std::vector<double> plain_ms;
  std::vector<double> traced_ms;
  std::vector<double> acks_sent;
  const int min_pairs = config.short_mode ? 1 : 4;
  const double budget_s = 0.6 * config.seconds;
  const auto start = Clock::now();
  for (int pair = 0; (pair < min_pairs || seconds_since(start) < budget_s) &&
                     Clock::now() < config.hard_deadline && report.failed() < kMaxFailures;
       ++pair) {
    for (int leg = 0; leg < 2; ++leg) {
      const bool traced = (leg == 0) == (pair % 2 == 0);
      fobs::telemetry::EventTracer tracer;
      const SpanScope span(spans, traced ? "fetch_file.traced" : "fetch_file", path.id(),
                           1 + 2 * pair + leg);
      const FetchSample sample = bench.fetch(traced ? &tracer : nullptr, false);
      if (!sample.ok) continue;
      (traced ? traced_ms : plain_ms).push_back(sample.wall_ms);
      if (traced) acks_sent.push_back(static_cast<double>(sample.acks_sent));
      samples.push_back(sample);
    }
  }
  bench.stop_server();
  if (plain_ms.empty() || traced_ms.empty()) return;

  const double packets = std::ceil(static_cast<double>(geometry.object_bytes) /
                                   static_cast<double>(geometry.packet_bytes));
  std::vector<double> sent;
  std::vector<double> duplicates;
  std::vector<double> transfer_ms;
  std::vector<double> overhead_ms;
  Counters total{};
  for (const FetchSample& sample : samples) {
    sent.push_back(static_cast<double>(sample.delta[kPacketsSent]));
    duplicates.push_back(static_cast<double>(sample.delta[kDuplicates]));
    transfer_ms.push_back(sample.transfer_ms);
    overhead_ms.push_back(sample.wall_ms - sample.transfer_ms);
    for (std::size_t i = 0; i < total.size(); ++i) total[i] += sample.delta[i];
  }
  const double fetches = static_cast<double>(samples.size());
  const double sent_per_fetch = median(sent);
  const double waste = sent_per_fetch / packets - 1.0;
  const double transfer = median(transfer_ms);
  const int checkpoint_every = fobs::posix::ReceiverOptions{}.checkpoint_every_acks;
  report.metric("driver.transfer_ms", transfer, "ms");
  report.metric("driver.waste_pct", 100.0 * waste, "%");
  report.metric("driver.dup_pct", 100.0 * median(duplicates) / packets, "%");
  report.metric("fileserver.overhead_ms", median(overhead_ms), "ms");
  report.metric("engine.sessions_per_fetch", static_cast<double>(total[kSessions]) / fetches,
                "sessions/fetch");
  report.metric("net.syscalls_per_pkt",
                static_cast<double>(total[kSyscalls]) / (fetches * packets), "syscalls/pkt");
  report.metric("net.datagrams_per_syscall",
                static_cast<double>(total[kDatagrams]) /
                    static_cast<double>(std::max<std::int64_t>(total[kDatagramCalls], 1)),
                "dgrams/syscall");
  report.metric("checkpoint.saves_per_fetch", median(acks_sent) / checkpoint_every,
                "saves/fetch");
  report.metric("trace.overhead_pct", 100.0 * (median(traced_ms) / median(plain_ms) - 1.0), "%");
  report.note("trace_fetches", fetches);

  LayerInputs inputs;
  inputs.object_bytes = geometry.object_bytes;
  inputs.flow_object_bytes = geometry.object_bytes / geometry.stripes;
  inputs.packet_bytes = geometry.packet_bytes;
  inputs.drop_fraction = std::clamp(waste / (1.0 + waste), 0.0, 0.5);
  inputs.checksum_path = bench.served_path();
  inputs.scratch = config.scratch;
  inputs.seed = config.seed;
  const LayerCosts costs = measure_layers(inputs, spans, path.id());
  report_layer_costs(costs, report);
  report.note("replay_drop_fraction", inputs.drop_fraction);

  // Budget closure: the replayed per-packet costs of each end against
  // the measured transfer time per data packet sent on one flow. What
  // the sums miss (polling, waiting, kernel time) stays visible as
  // unaccounted time.
  const double ack_share = costs.acks_per_send;
  const double sender_ns =
      costs.select_next_ns + costs.crc32_ns + costs.header_encode_ns + costs.send_ns_per_dgram +
      ack_share * (costs.recv_ns_per_dgram + costs.ack_decode_ns + costs.on_ack_ns);
  const double receiver_ns =
      costs.recv_ns_per_dgram + costs.header_decode_ns + costs.crc32_ns +
      costs.on_data_packet_ns + costs.place_ns_per_pkt +
      ack_share * (costs.make_ack_ns + costs.ack_encode_ns + costs.send_ns_per_dgram +
                   costs.checkpoint_save_us * 1e3 / checkpoint_every);
  const double flow_ns_per_pkt = transfer * 1e6 / (sent_per_fetch / geometry.stripes);
  report.metric("driver.sender_ns_per_pkt", sender_ns, "ns");
  report.metric("driver.receiver_ns_per_pkt", receiver_ns, "ns");
  report.metric("driver.unaccounted_ns_per_pkt",
                flow_ns_per_pkt - std::max(sender_ns, receiver_ns), "ns");
}

}  // namespace

void run_fetch_workload(const RunConfig& config, const FetchGeometry& geometry, SpanLog& spans,
                        Report& report) {
  if (config.trace) {
    const SpanScope run(spans, "run", 0);
    trace_fetch_path(config, geometry, spans, run.id(), report);
    measure_sim_layer(geometry, config.seed, spans, run.id(), report);
    return;
  }
  FetchBench bench(config, geometry, report);
  if (!bench.prepare()) return fail_setup(report, "input_write");
  // Set-up is server start plus one warm-up fetch, done kSetups times;
  // the last server stays up for the timed loop.
  std::vector<double> setup_s;
  for (int i = 0; i < kSetups; ++i) {
    bench.stop_server();
    const auto start = Clock::now();
    if (!bench.start_server()) return fail_setup(report, "server_start");
    if (!bench.fetch(nullptr, false).ok) return;
    setup_s.push_back(seconds_since(start));
  }

  // Closed loop, one client: the next fetch starts once the previous
  // one, and the server's side of it, has finished. The loop stops when
  // another fetch would overrun --seconds, but not before the minimum
  // sample count.
  const std::size_t min_fetches = config.short_mode ? 3 : kMinFetches;
  std::vector<double> wall_ms;
  double cpu_s = 0.0;
  bool flip_pending = config.flip_byte;
  const auto loop_start = Clock::now();
  while (Clock::now() < config.hard_deadline && report.failed() < kMaxFailures) {
    if (wall_ms.size() >= min_fetches &&
        seconds_since(loop_start) + median(wall_ms) / 1e3 > config.seconds) {
      break;
    }
    const FetchSample sample = bench.fetch(nullptr, flip_pending);
    flip_pending = false;
    if (!sample.ok) continue;
    wall_ms.push_back(sample.wall_ms);
    cpu_s += sample.cpu_s;
  }
  bench.stop_server();
  if (wall_ms.empty()) return;

  const double p50 = median(wall_ms);
  const double p90 = quantile(wall_ms, 0.9);
  const double delivered_gib =
      static_cast<double>(wall_ms.size()) * static_cast<double>(geometry.object_bytes) / kGiB;
  report.metric("goodput_mbps", object_megabits(geometry) / (p50 / 1e3), "Mb/s");
  report.metric("fetch_ms_p90", p90, "ms");
  report.metric("cpu_s_per_gib", cpu_s / delivered_gib, "s/GiB");
  report.metric("setup_s", median(setup_s), "s");
  report.metric("rss_peak_mib", peak_rss_mib(), "MiB");
  report.note("fetches", static_cast<double>(wall_ms.size()));
  report.note("fetch_ms_p50", p50);
  report.note("samples_beyond_p90",
              static_cast<double>(std::count_if(wall_ms.begin(), wall_ms.end(),
                                                [p90](double ms) { return ms > p90; })));
}

}  // namespace perfbench

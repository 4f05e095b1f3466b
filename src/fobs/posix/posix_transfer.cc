#include "fobs/posix/posix_transfer.h"

#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <thread>
#include <vector>

#include "common/log.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/codec.h"
#include "net/datagram_channel.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::posix {

namespace {

using Clock = std::chrono::steady_clock;
using fobs::net::Fd;
using fobs::net::make_addr;
using fobs::net::mbps;
using fobs::net::send_all;
using fobs::net::set_nonblocking;

/// Installs a "nanoseconds since `start`" clock on `tracer` and records
/// the transfer_start event. No-op on a null tracer.
void begin_trace(fobs::telemetry::EventTracer* tracer, Clock::time_point start,
                 std::int64_t packet_count) {
  if (tracer == nullptr) return;
  tracer->set_clock([start] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
  });
  tracer->record(telemetry::EventType::kTransferStart, -1, packet_count);
}

/// Records the terminal trace event for a non-completed status: the
/// give-up statuses map to a timeout event, hard failures to an error
/// event, and completion/cancellation to none.
void end_trace(fobs::telemetry::EventTracer* tracer, TransferStatus status) {
  if (tracer == nullptr) return;
  switch (status) {
    case TransferStatus::kCompleted:
    case TransferStatus::kCancelled:
      return;
    case TransferStatus::kTimeout:
    case TransferStatus::kStalled:
    case TransferStatus::kPeerLost:
      tracer->record(telemetry::EventType::kTimeout);
      return;
    default:
      tracer->record(telemetry::EventType::kError);
      return;
  }
}

/// Classifies a completed run into the per-outcome metrics counters.
void count_outcome(telemetry::MetricsRegistry& metrics, const char* side,
                   TransferStatus status) {
  const std::string prefix = std::string("fobs.posix.") + side;
  switch (status) {
    case TransferStatus::kCompleted: metrics.counter(prefix + ".completed").inc(); break;
    case TransferStatus::kTimeout:
    case TransferStatus::kStalled:
    case TransferStatus::kPeerLost:
      metrics.counter(prefix + ".timeouts").inc();
      break;
    case TransferStatus::kCancelled: metrics.counter(prefix + ".cancelled").inc(); break;
    default: metrics.counter(prefix + ".errors").inc(); break;
  }
}

/// Scope guard that feeds the final status to count_outcome on every
/// exit path — the early option/socket failures included, so the
/// per-outcome counters always sum to the number of runs.
class OutcomeScope {
 public:
  OutcomeScope(telemetry::MetricsRegistry& metrics, const char* side,
               const TransferStatus& status)
      : metrics_(metrics), side_(side), status_(status) {}
  ~OutcomeScope() { count_outcome(metrics_, side_, status_); }
  OutcomeScope(const OutcomeScope&) = delete;
  OutcomeScope& operator=(const OutcomeScope&) = delete;

 private:
  telemetry::MetricsRegistry& metrics_;
  const char* side_;
  const TransferStatus& status_;
};

bool cancel_requested(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

/// Checks that flow `flow` of `plan` describes the object span this
/// flow carries and returns that flow's stripe-local geometry. The
/// drivers then run unchanged in local sequence space; only payload
/// offsets go through the plan. False (with `error` set) on any
/// mismatch — a wrong plan silently corrupting offsets is the failure
/// mode guarded against here.
bool resolve_flow(const stripe::StripePlan& plan, int flow, std::int64_t span_bytes,
                  std::int64_t packet_bytes, fobs::core::TransferSpec& spec,
                  std::string& error) {
  if (flow < 0 || flow >= plan.stripe_count()) {
    error = "invalid options: stripe index outside the plan";
    return false;
  }
  if (plan.spec().object_bytes != span_bytes || plan.spec().packet_bytes != packet_bytes) {
    error = "invalid options: stripe plan does not match this transfer's geometry";
    return false;
  }
  spec = plan.stripe_spec(flow);
  return true;
}

/// Resolves the fault plan for one endpoint: the options field wins,
/// otherwise FOBS_FAULT_PLAN from the environment. Returns false (and
/// sets `error`) on a malformed plan.
bool resolve_fault_plan(const std::string& from_options,
                        std::optional<fobs::net::FaultInjector>& injector,
                        std::string& error) {
  std::string spec = from_options;
  if (spec.empty()) {
    if (const char* env = std::getenv("FOBS_FAULT_PLAN")) spec = env;
  }
  if (spec.empty()) return true;
  std::string parse_error;
  const auto plan = fobs::net::FaultPlan::parse(spec, &parse_error);
  if (!plan) {
    error = "invalid fault plan: " + parse_error;
    return false;
  }
  if (!plan->empty()) injector.emplace(*plan);
  return true;
}

/// Wall-clock stall checker shared by both endpoints: `tick` forwards
/// to the core once per elapsed interval and reports whether the
/// consecutive-empty streak has reached the give-up limit.
class StallClock {
 public:
  StallClock(Clock::time_point start, int timeout_ms, int intervals)
      : limit_(std::max(1, intervals)),
        interval_(std::chrono::milliseconds(std::max(1, timeout_ms / std::max(1, intervals)))),
        next_check_(start + interval_) {}

  template <typename Core>
  [[nodiscard]] bool expired(Core& core) {
    const auto now = Clock::now();
    while (now >= next_check_) {
      streak_ = core.on_stall_interval();
      next_check_ += interval_;
    }
    return streak_ >= limit_;
  }

 private:
  int limit_;
  Clock::duration interval_;
  Clock::time_point next_check_;
  int streak_ = 0;
};

/// Classification of one received ACK datagram.
enum class AckClass : std::uint8_t {
  kApply,    ///< decoded, epoch matches: apply to the core
  kStale,    ///< decoded, wrong incarnation epoch: count and ignore
  kCorrupt,  ///< undecodable (corrupted in flight or garbage): count and drop
};

/// The one place ACK datagrams are classified — shared by the sender's
/// main loop and its completion drain, so the drop counters and trace
/// events can never diverge between the two code paths.
class AckClassifier {
 public:
  AckClassifier(SenderResult& result, telemetry::MetricsRegistry& metrics,
                fobs::telemetry::EventTracer* tracer)
      : result_(result), metrics_(metrics), tracer_(tracer) {}

  /// A hello frame announced the receiver's incarnation epoch; from now
  /// on only ACKs stamped with it are applied.
  void on_hello(std::uint32_t epoch) {
    epoch_ = epoch;
    filtering_ = true;
  }

  /// The control channel reconnected: the dead incarnation's in-flight
  /// ACKs are poison, so reject everything until the new hello arrives
  /// (receivers always pick nonzero epochs).
  void on_peer_reconnect() { epoch_ = 0; }

  AckClass classify(const std::uint8_t* data, std::size_t len,
                    std::optional<fobs::core::AckMessage>& decoded) {
    decoded = decode_ack(data, len);
    if (!decoded) {
      ++result_.corrupt_acks_dropped;
      metrics_.counter("fobs.fault.corrupt_drops").inc();
      if (tracer_ != nullptr) {
        tracer_->record(telemetry::EventType::kCorruptDrop, -1,
                        result_.corrupt_acks_dropped);
      }
      return AckClass::kCorrupt;
    }
    if (filtering_ && decoded->epoch != epoch_) {
      ++result_.stale_acks_dropped;
      metrics_.counter("fobs.fault.stale_acks").inc();
      return AckClass::kStale;
    }
    return AckClass::kApply;
  }

 private:
  SenderResult& result_;
  telemetry::MetricsRegistry& metrics_;
  fobs::telemetry::EventTracer* tracer_;
  std::uint32_t epoch_ = 0;
  bool filtering_ = false;
};

}  // namespace

namespace detail {

// ---------------------------------------------------------------------------
// Sender
// ---------------------------------------------------------------------------

SenderResult run_sender(const SenderOptions& options, const stripe::StripePlan& plan, int flow,
                        std::span<const std::uint8_t> object, const std::atomic<bool>* cancel) {
  SenderResult result;
  result.status = TransferStatus::kBadOptions;
  auto& metrics = telemetry::MetricsRegistry::global();
  OutcomeScope outcome(metrics, "sender", result.status);
  // Sequence numbers below are stripe-local; only the payload offset
  // into the (whole-object) span goes through the plan.
  fobs::core::TransferSpec spec;
  if (!resolve_flow(plan, flow, static_cast<std::int64_t>(object.size()),
                    options.endpoint.packet_bytes, spec, result.error)) {
    return result;
  }
  result.packets_needed = spec.packet_count();

  std::optional<fobs::net::FaultInjector> faults;
  if (!resolve_fault_plan(options.endpoint.fault_plan, faults, result.error)) return result;

  // Datagram channel for data out / ACKs in. Left unbound — the kernel
  // assigns the source port on first send and the receiver replies to
  // it. Receive slots are sized for the largest ACK datagram.
  result.status = TransferStatus::kSocketError;
  std::string io_error;
  auto channel = fobs::net::DatagramChannel::open(
      {}, static_cast<std::size_t>(kMaxDatagramBytes), std::nullopt, &io_error);
  if (!channel.valid()) {
    result.error = io_error;
    return result;
  }
  const sockaddr_in peer = make_addr(options.receiver_host, options.data_port);

  // TCP listener for the control channel (completion + resume frames).
  const Fd listener = fobs::net::listen_tcp(options.control_port, 1);
  if (!listener.valid()) {
    result.error = "tcp listen failed";
    return result;
  }

  fobs::core::SenderCore core(spec, options.core);
  // Per-batch scatter-gather state. Headers live in `headers` so every
  // view's iovec stays valid for the whole send_batch call; payload
  // views point straight into the caller's (typically mmap'd) object —
  // zero payload copies — except when a fault corrupts a private copy.
  std::vector<std::array<std::uint8_t, kDataHeaderSize>> headers;
  std::vector<fobs::net::DatagramView> views;
  std::vector<std::vector<std::uint8_t>> corrupt_payloads;
  std::vector<fobs::net::RecvView> ack_views(fobs::net::IoOptions::recv_batch);

  Fd control;
  bool control_ever_connected = false;
  std::vector<std::uint8_t> control_buf;
  const auto start = Clock::now();
  StallClock stall(start, options.endpoint.timeout_ms, options.endpoint.stall_intervals);
  fobs::telemetry::EventTracer* tracer = options.endpoint.tracer;
  // ACK-stream versioning: once a receiver announces its incarnation
  // epoch via a hello frame, only ACKs stamped with that epoch are
  // applied. After a reconnect the expected epoch is cleared, so late
  // datagrams from the dead incarnation can never re-mark packets the
  // new receiver does not have.
  AckClassifier acks(result, metrics, tracer);
  core.set_tracer(tracer);
  begin_trace(tracer, start, spec.packet_count());
  metrics.counter("fobs.posix.sender.transfers").inc();
  result.status = TransferStatus::kRunning;

  while (!core.completion_received()) {
    if (cancel_requested(cancel)) {
      result.status = TransferStatus::kCancelled;
      result.error = "cancelled";
      break;
    }
    if (stall.expired(core)) {
      // Zero progress ever means the peer never showed up (a plain
      // timeout); progress that then stopped for the whole budget is a
      // stall — callers may want to treat those very differently.
      const bool progressed = control_ever_connected || core.stats().packets_acked > 0;
      result.status = progressed ? TransferStatus::kStalled : TransferStatus::kTimeout;
      result.error = progressed ? "stalled: no progress for the whole stall budget"
                                : "timeout";
      metrics.counter("fobs.fault.stalls").inc();
      break;
    }

    // Accept / read the control channel. A restarted receiver shows up
    // as EOF on the old connection followed by a fresh accept; its
    // resume frame (full bitmap) then pre-acks everything the previous
    // incarnation stored.
    if (!control.valid()) {
      const int fd = ::accept(listener.get(), nullptr, nullptr);
      if (fd >= 0) {
        control = Fd(fd);
        set_nonblocking(fd);
        if (control_ever_connected) {
          ++result.reconnects;
          metrics.counter("fobs.fault.reconnects").inc();
          if (tracer != nullptr) {
            tracer->record(telemetry::EventType::kReconnect, -1, result.reconnects);
          }
          // The peer's state is unknown (possibly a from-scratch
          // restart): drop the ACK view so everything is resent unless
          // the resume frame that may follow restores it.
          core.on_peer_restart();
          // Discard ACKs queued by the previous incarnation — applying
          // one after the reset would re-mark packets the new receiver
          // does not have. (An early ACK from the new incarnation can be
          // discarded too; the next snapshot ACK supersedes it.) The
          // drain handles what is already queued; the epoch filter
          // handles stale ACKs still in flight after it.
          while (channel.recv_batch(ack_views, nullptr) > 0) {
          }
          acks.on_peer_reconnect();
        }
        control_ever_connected = true;
      }
    } else {
      std::uint8_t tmp[4096];
      const ssize_t n = ::recv(control.get(), tmp, sizeof tmp, MSG_DONTWAIT);
      if (n > 0) {
        control_buf.insert(control_buf.end(), tmp, tmp + n);
      } else if (n == 0 ||
                 (n < 0 && errno != EWOULDBLOCK && errno != EAGAIN && errno != EINTR)) {
        control.reset();
        control_buf.clear();
      }
      // Take whole frames off the buffered stream until one is
      // incomplete, the completion arrives, or the stream desyncs.
      for (bool more = true; more;) {
        auto frame = next_control_frame(control_buf.data(), control_buf.size(),
                                        spec.packet_count());
        control_buf.erase(control_buf.begin(),
                          control_buf.begin() + static_cast<std::ptrdiff_t>(frame.consumed));
        switch (frame.kind) {
          case ControlFrameKind::kNeedMore: more = false; break;
          case ControlFrameKind::kHello: acks.on_hello(frame.epoch); break;
          case ControlFrameKind::kResume:
            if (frame.resume) {
              core.on_resume(frame.resume->bitmap.data(), frame.resume->bitmap.size(),
                             frame.resume->packet_count);
              metrics.counter("fobs.fault.resumes").inc();
            }
            break;
          case ControlFrameKind::kCompletion:
            core.on_completion_signal();
            more = false;
            break;
          case ControlFrameKind::kDesync:
            // Garbage stream: drop the connection and let the receiver
            // re-establish it cleanly.
            control.reset();
            control_buf.clear();
            more = false;
            break;
        }
      }
      if (core.completion_received()) break;
    }

    // Phase 2: one non-blocking batched drain of the ACK socket.
    // Undecodable datagrams (corrupted in flight or plain garbage) are
    // counted and dropped; they never reach the core.
    const int n_acks = channel.recv_batch(ack_views, nullptr);
    for (int i = 0; i < n_acks; ++i) {
      std::optional<fobs::core::AckMessage> ack;
      if (acks.classify(ack_views[static_cast<std::size_t>(i)].data.data(),
                        ack_views[static_cast<std::size_t>(i)].data.size(),
                        ack) == AckClass::kApply) {
        core.on_ack(*ack);
      }
    }

    if (core.all_acked()) {
      // Nothing useful to send; sleep on the actual fds (fresher ACKs
      // on the data socket, the completion token on the control side)
      // instead of napping a fixed interval, so completion latency does
      // not quantize to a nap period. Bounded at 10 ms so the
      // cancel/stall checks keep running.
      pollfd pfds[2] = {{channel.fd(), POLLIN, 0},
                        {control.valid() ? control.get() : listener.get(), POLLIN, 0}};
      ::poll(pfds, 2, 10);
      continue;
    }

    // Phase 1: gather one FOBS batch as scatter-gather views (header
    // buffer + a pointer into the object) and push it with as few send
    // syscalls as the channel can manage.
    const int batch = core.current_batch_size();
    headers.resize(static_cast<std::size_t>(std::max(batch, 1)));
    views.clear();
    corrupt_payloads.clear();
    int selected = 0;
    bool crash_pending = false;
    for (int i = 0; i < batch && !core.all_acked(); ++i) {
      if (faults && faults->crash_due()) {
        crash_pending = true;  // what is already gathered still goes out
        break;
      }
      const auto seq = core.select_next();
      if (!seq) break;
      const std::int64_t len = spec.payload_bytes(*seq);
      const std::uint8_t* payload = object.data() + plan.global_offset(flow, *seq);
      auto& header_buf = headers[static_cast<std::size_t>(selected)];
      encode_data_header(DataHeader{*seq, payload_crc(payload, static_cast<std::size_t>(len))},
                         header_buf.data());
      int copies = 1;
      if (faults) {
        switch (faults->next(fobs::net::FaultChannel::kData)) {
          case fobs::net::FaultAction::kDrop: copies = 0; break;
          case fobs::net::FaultAction::kCorrupt: {
            // Flip a byte in a private copy after the CRC was computed,
            // so the receiver's checksum test fails deterministically —
            // on exactly this datagram of the batch. The mapped object
            // itself must stay pristine.
            auto& copy = corrupt_payloads.emplace_back(payload, payload + len);
            copy[0] ^= 0xFF;
            payload = copy.data();
            break;
          }
          case fobs::net::FaultAction::kDuplicate: copies = 2; break;
          case fobs::net::FaultAction::kPass: break;
        }
      }
      for (int copy = 0; copy < copies; ++copy) {
        views.push_back({std::span<const std::uint8_t>(header_buf),
                         std::span<const std::uint8_t>(payload,
                                                       static_cast<std::size_t>(len))});
      }
      ++selected;
    }
    if (!views.empty() && !channel.send_batch(views, peer, &io_error)) {
      result.status = TransferStatus::kSocketError;
      result.error = io_error;
      break;
    }
    if (tracer != nullptr && selected > 0) {
      tracer->record(telemetry::EventType::kBatchSent, -1, selected);
    }
    if (crash_pending) {
      result.status = TransferStatus::kCrashed;
      result.error = "injected crash";
      break;
    }

    // The adaptive extension's pacing gap, when enabled.
    const auto gap = core.pacing_gap();
    if (gap > fobs::util::Duration::zero()) {
      std::this_thread::sleep_for(std::chrono::nanoseconds(gap.ns()));
    }
  }

  // Drain ACK datagrams still queued at exit so the corrupt/stale drop
  // counters reflect everything that actually arrived. A fast transfer
  // can complete over the control channel with most ACKs unread; their
  // classification must not depend on that race.
  if (core.completion_received()) {
    int drained = 0;
    while ((drained = channel.recv_batch(ack_views, nullptr)) > 0) {
      for (int i = 0; i < drained; ++i) {
        std::optional<fobs::core::AckMessage> ack;
        // Classification only — the transfer is over, so a kApply ACK
        // is simply discarded while corrupt/stale ones are counted.
        acks.classify(ack_views[static_cast<std::size_t>(i)].data.data(),
                      ack_views[static_cast<std::size_t>(i)].data.size(), ack);
      }
    }
  }

  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  result.elapsed_seconds = elapsed;
  result.packets_sent = core.stats().packets_sent;
  result.waste = core.waste();
  if (core.completion_received()) {
    result.status = TransferStatus::kCompleted;
    result.goodput_mbps = mbps(spec.object_bytes, elapsed);
    result.error.clear();
    metrics
        .histogram("fobs.posix.sender.elapsed_ms",
                   {1, 10, 100, 1'000, 10'000, 60'000, 600'000})
        .observe(static_cast<std::int64_t>(elapsed * 1e3));
  }
  end_trace(tracer, result.status);
  if (faults) metrics.counter("fobs.fault.injected").inc(faults->total_injected());
  metrics.counter("fobs.posix.sender.packets_sent").inc(result.packets_sent);
  result.io = channel.stats();
  return result;
}

// ---------------------------------------------------------------------------
// Receiver
// ---------------------------------------------------------------------------

ReceiverResult run_receiver(const ReceiverOptions& options, const stripe::StripePlan& plan,
                            int flow, std::span<std::uint8_t> buffer,
                            const std::atomic<bool>* cancel) {
  ReceiverResult result;
  result.status = TransferStatus::kBadOptions;
  auto& metrics = telemetry::MetricsRegistry::global();
  OutcomeScope outcome(metrics, "receiver", result.status);
  fobs::core::TransferSpec spec;
  if (!resolve_flow(plan, flow, static_cast<std::int64_t>(buffer.size()),
                    options.endpoint.packet_bytes, spec, result.error)) {
    return result;
  }

  std::optional<fobs::net::FaultInjector> faults;
  if (!resolve_fault_plan(options.endpoint.fault_plan, faults, result.error)) return result;
  metrics.counter("fobs.posix.receiver.transfers").inc();

  // Datagram channel bound at the data port. Receive slots are sized
  // for exactly one full data packet; anything larger is truncated by
  // the kernel and rejected as garbage below.
  result.status = TransferStatus::kSocketError;
  std::string io_error;
  auto channel = fobs::net::DatagramChannel::open(
      {}, kDataHeaderSize + static_cast<std::size_t>(options.endpoint.packet_bytes),
      options.data_port, &io_error);
  if (!channel.valid()) {
    result.error = io_error;
    return result;
  }

  const auto start = Clock::now();
  const auto deadline = start + std::chrono::milliseconds(options.endpoint.timeout_ms);
  fobs::telemetry::EventTracer* tracer = options.endpoint.tracer;
  begin_trace(tracer, start, spec.packet_count());

  fobs::core::ReceiverCore core(spec, options.core);
  core.set_tracer(tracer);
  result.status = TransferStatus::kRunning;

  // Resume: pre-seed the bitmap from this flow's range of a compatible
  // object-level checkpoint. The data bytes themselves must already be
  // in `buffer` (the caller persisted the partial object, e.g. via a
  // file-backed buffer).
  const CheckpointRange checkpoint{options.checkpoint_path, plan.spec().object_bytes,
                                   spec.packet_bytes,
                                   static_cast<std::size_t>(plan.first_packet(flow)),
                                   static_cast<std::size_t>(spec.packet_count())};
  if (!checkpoint.path.empty()) {
    if (const auto packed = load_checkpoint_range(checkpoint)) {
      const auto restored = core.restore(packed->data(), packed->size(), spec.packet_count());
      if (restored >= 0) {
        result.packets_restored = restored;
        metrics.counter("fobs.fault.resumes").inc();
      }
    }
  }

  // Incarnation epoch: stamps every ACK and is announced on each
  // control connection, so the sender can tell this incarnation's ACKs
  // from stale ones still in flight after a restart. Monotonic time
  // xor'd with the pid makes a collision across incarnations
  // vanishingly unlikely; zero is reserved for "no epoch yet".
  std::uint32_t epoch = static_cast<std::uint32_t>(
      std::chrono::steady_clock::now().time_since_epoch().count() ^
      (static_cast<std::uint64_t>(::getpid()) << 16));
  if (epoch == 0) epoch = 1;
  const auto hello = encode_hello(epoch);

  // Control channel: connect with capped exponential backoff (the
  // sender may not be up yet, or we may be a restarted incarnation).
  Fd control = fobs::net::connect_with_backoff(options.sender_host, options.control_port, deadline, cancel);
  if (!control.valid()) {
    if (cancel_requested(cancel)) {
      result.status = TransferStatus::kCancelled;
      result.error = "cancelled";
    } else {
      result.status = TransferStatus::kPeerLost;
      result.error = "control connect timeout";
    }
    end_trace(tracer, result.status);
    return result;
  }
  if (!send_all(control.get(), hello.data(), hello.size(), deadline)) {
    FOBS_WARN("fobs.receiver", "hello frame send failed; sender keeps its previous epoch");
  }

  // Announce a restored bitmap so the sender skips what we already have.
  if (result.packets_restored > 0 || core.complete()) {
    const auto bitmap = core.received().extract_range(
        0, static_cast<std::size_t>(spec.packet_count()));
    const auto frame = encode_resume(spec.packet_count(), result.packets_restored, bitmap);
    if (!send_all(control.get(), frame.data(), frame.size(), deadline)) {
      FOBS_WARN("fobs.receiver", "resume frame send failed; sender will re-send everything");
    }
  }

  std::vector<fobs::net::RecvView> rx_views(fobs::net::IoOptions::recv_batch);
  bool sender_known = false;
  sockaddr_in sender_addr{};  // learned from the first *valid* data packet
  // The stall budget measures the data-transfer phase only: a slow
  // control connect must not be double-counted as empty stall intervals
  // the moment data starts flowing.
  StallClock stall(Clock::now(), options.endpoint.timeout_ms, options.endpoint.stall_intervals);
  int acks_since_checkpoint = 0;
  bool crashed = false;

  while (!core.complete() && !crashed) {
    if (cancel_requested(cancel)) {
      result.status = TransferStatus::kCancelled;
      result.error = "cancelled";
      break;
    }
    if (stall.expired(core)) {
      const bool progressed = core.stats().packets_received > 0;
      result.status = progressed ? TransferStatus::kStalled : TransferStatus::kTimeout;
      result.error = progressed ? "stalled: no progress for the whole stall budget"
                                : "timeout";
      metrics.counter("fobs.fault.stalls").inc();
      break;
    }
    if (faults && faults->crash_due()) {
      crashed = true;
      break;
    }
    const int n_rx = channel.recv_batch(rx_views, &io_error);
    if (n_rx < 0) {
      result.status = TransferStatus::kSocketError;
      result.error = io_error;
      break;
    }
    if (n_rx == 0) {
      pollfd pfd{channel.fd(), POLLIN, 0};
      ::poll(&pfd, 1, 10);
      continue;
    }
    for (int i = 0; i < n_rx && !core.complete(); ++i) {
      // The crash schedule fires mid-batch too: datagrams already
      // processed from this recvmmsg stay processed, the rest are lost
      // with the incarnation, as a kill -9 in the middle of a batch
      // would leave them.
      if (faults && faults->crash_due()) {
        crashed = true;
        break;
      }
      const std::uint8_t* data = rx_views[static_cast<std::size_t>(i)].data.data();
      const std::size_t size = rx_views[static_cast<std::size_t>(i)].data.size();
      const auto header = decode_data_header(data, size);
      if (!header || header->seq < 0 || header->seq >= spec.packet_count()) continue;
      const std::int64_t len = spec.payload_bytes(header->seq);
      if (size < kDataHeaderSize + static_cast<std::size_t>(len)) continue;  // truncated
      if (payload_crc(data + kDataHeaderSize, static_cast<std::size_t>(len)) !=
          header->payload_crc) {
        // Checksum failure: reject before the payload can touch the
        // object buffer; the greedy sender will resend it.
        ++result.corrupt_packets_dropped;
        metrics.counter("fobs.fault.corrupt_drops").inc();
        if (tracer != nullptr) {
          tracer->record(telemetry::EventType::kCorruptDrop, header->seq,
                         result.corrupt_packets_dropped);
        }
        continue;
      }
      // Only a fully validated packet may teach us where ACKs go — a
      // garbage datagram must not be able to redirect the ACK stream.
      sender_addr = rx_views[static_cast<std::size_t>(i)].from;
      sender_known = true;

      if (faults) {
        // The receiver-side data schedule models incoming damage beyond
        // what the checksum caught: drop = pretend it never arrived.
        // Drawn per datagram, so a fault hits one slot of the batch.
        switch (faults->next(fobs::net::FaultChannel::kData)) {
          case fobs::net::FaultAction::kDrop: continue;
          case fobs::net::FaultAction::kCorrupt: {
            ++result.corrupt_packets_dropped;
            metrics.counter("fobs.fault.corrupt_drops").inc();
            if (tracer != nullptr) {
              tracer->record(telemetry::EventType::kCorruptDrop, header->seq,
                             result.corrupt_packets_dropped);
            }
            continue;
          }
          default: break;
        }
      }

      const auto outcome = core.on_data_packet(header->seq);
      if (outcome.newly_received) {
        std::memcpy(buffer.data() + plan.global_offset(flow, header->seq),
                    data + kDataHeaderSize, static_cast<std::size_t>(len));
      }
      if (outcome.ack_due && sender_known) {
        auto msg = core.make_ack();
        msg.epoch = epoch;
        auto ack = encode_ack(msg);
        int copies = 1;
        if (faults) {
          switch (faults->next(fobs::net::FaultChannel::kAck)) {
            case fobs::net::FaultAction::kDrop: copies = 0; break;
            case fobs::net::FaultAction::kCorrupt:
              // Smash the magic so the sender counts + rejects it.
              ack[0] ^= 0xFF;
              break;
            case fobs::net::FaultAction::kDuplicate: copies = 2; break;
            case fobs::net::FaultAction::kPass: break;
          }
        }
        if (copies > 0) {
          // A duplicated ACK goes out as one two-view batch, so both
          // copies leave in one sendmmsg call.
          const fobs::net::DatagramView ack_view{
              std::span<const std::uint8_t>(ack.data(), ack.size())};
          std::array<fobs::net::DatagramView, 2> ack_batch{ack_view, ack_view};
          channel.send_batch(
              std::span<const fobs::net::DatagramView>(ack_batch.data(),
                                                       static_cast<std::size_t>(copies)),
              sender_addr, nullptr);
        }
        if (tracer != nullptr) {
          tracer->record(telemetry::EventType::kAckSent,
                         static_cast<std::int64_t>(msg.ack_no),
                         static_cast<std::int64_t>(ack.size()));
        }
        // Once complete, only the fold after the loop may write: the
        // file may already be gone because every other flow is done, and
        // a second fold would bring it back holding this range alone.
        if (!checkpoint.path.empty() && !core.complete() &&
            ++acks_since_checkpoint >= std::max(1, options.checkpoint_every_acks)) {
          acks_since_checkpoint = 0;
          fold_checkpoint_range(checkpoint, core.received());
        }
      }
    }
  }
  if (crashed) {
    // Simulated kill -9: abandon the transfer without cleanup. Any
    // checkpoint written so far stays behind for the next incarnation.
    result.status = TransferStatus::kCrashed;
    result.error = "injected crash";
  }

  if (core.complete()) {
    // Deliver the completion token; if the control connection died in
    // the meantime, reconnect (with backoff) and retry a few times.
    const auto token = encode_completion();
    const auto token_deadline = Clock::now() + std::chrono::seconds(2);
    bool delivered = control.valid() && send_all(control.get(), token.data(), token.size(),
                                                 token_deadline);
    for (int attempt = 0; !delivered && attempt < 3; ++attempt) {
      control = fobs::net::connect_with_backoff(options.sender_host, options.control_port,
                                Clock::now() + std::chrono::seconds(1), cancel);
      if (!control.valid()) continue;
      ++result.reconnects;
      metrics.counter("fobs.fault.reconnects").inc();
      if (tracer != nullptr) {
        tracer->record(telemetry::EventType::kReconnect, -1, result.reconnects);
      }
      // Hello first, as on every control connection.
      delivered = send_all(control.get(), hello.data(), hello.size(),
                           Clock::now() + std::chrono::seconds(1)) &&
                  send_all(control.get(), token.data(), token.size(),
                           Clock::now() + std::chrono::seconds(1));
    }
    result.status = TransferStatus::kCompleted;
    result.error.clear();
    // Folding the full range removes the file once every flow is done.
    if (!checkpoint.path.empty()) fold_checkpoint_range(checkpoint, core.received());
  }
  const double elapsed = std::chrono::duration<double>(Clock::now() - start).count();
  result.elapsed_seconds = elapsed;
  result.packets_received = core.stats().packets_received;
  result.duplicates = core.stats().duplicates;
  if (result.completed()) result.goodput_mbps = mbps(spec.object_bytes, elapsed);
  end_trace(tracer, result.status);
  if (faults) metrics.counter("fobs.fault.injected").inc(faults->total_injected());
  metrics.counter("fobs.posix.receiver.packets_received").inc(result.packets_received);
  metrics.counter("fobs.posix.receiver.duplicates").inc(result.duplicates);
  result.io = channel.stats();
  return result;
}

}  // namespace detail

}  // namespace fobs::posix

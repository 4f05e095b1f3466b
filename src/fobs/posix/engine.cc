#include "fobs/posix/engine.h"

#include <poll.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <type_traits>
#include <unordered_map>
#include <variant>
#include <vector>

#include "common/crc32.h"
#include "common/thread_pool.h"
#include "fobs/posix/codec.h"
#include "fobs/stripe/plan.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::posix {

namespace {

/// Failure ordering for the aggregate status: configuration and socket
/// errors are the most actionable, a quiet stall the least.
int severity(TransferStatus status) {
  switch (status) {
    case TransferStatus::kBadOptions: return 7;
    case TransferStatus::kSocketError: return 6;
    case TransferStatus::kCrashed: return 5;
    case TransferStatus::kCancelled: return 4;
    case TransferStatus::kPeerLost: return 3;
    case TransferStatus::kTimeout: return 2;
    case TransferStatus::kStalled: return 1;
    default: return 0;
  }
}

/// Derives every aggregate field of `result` from its per-flow results.
/// A failed flow's error is prefixed with its index when the transfer
/// has more than one.
void finalize_aggregate(TransferResult& result, std::int64_t object_bytes) {
  double slowest = 0.0;
  TransferStatus worst = TransferStatus::kCompleted;
  std::string worst_error;
  for (std::size_t i = 0; i < result.flows.size(); ++i) {
    const auto& flow = result.flows[i];
    if (flow.completed()) {
      ++result.stripes_completed;
    } else if (severity(flow.status) > severity(worst) || worst == TransferStatus::kCompleted) {
      worst = flow.status;
      worst_error = flow.error;
      if (result.stripes > 1) worst_error = "stripe " + std::to_string(i) + ": " + flow.error;
    }
    slowest = std::max(slowest, flow.elapsed_seconds);
    result.io += flow.io;
    result.packets_restored += flow.packets_restored;
  }
  result.elapsed_seconds = slowest;
  if (result.stripes_completed == result.stripes && result.stripes > 0) {
    result.status = TransferStatus::kCompleted;
    result.error.clear();
    result.goodput_mbps = fobs::net::mbps(object_bytes, slowest);
  } else {
    result.status = worst;
    result.error = worst_error;
    result.goodput_mbps = 0.0;
  }
  auto& metrics = telemetry::MetricsRegistry::global();
  if (result.completed()) {
    metrics.counter("fobs.stripe.completed").inc();
  } else if (result.degraded()) {
    metrics.counter("fobs.stripe.degraded").inc();
  }
  if (result.packets_restored > 0) metrics.counter("fobs.stripe.resumes").inc();
}

/// One bound control listener per flow of a send, held before any flow
/// launches: the `handed` ones, else the block [first, first + flows)
/// bound here. Empty, with `result` status and error set, when the
/// handed count is not the flow count or a port cannot be bound.
std::vector<fobs::net::Fd> hold_control_ports(std::uint16_t first, int flows,
                                              std::vector<fobs::net::Fd> handed,
                                              TransferResult& result) {
  if (!handed.empty()) {
    if (handed.size() == static_cast<std::size_t>(flows)) return handed;
    result.status = TransferStatus::kBadOptions;
    result.error = "invalid options: " + std::to_string(handed.size()) +
                   " control listeners handed for " + std::to_string(flows) + " flows";
    return {};
  }
  auto block = fobs::net::listen_tcp_block(first, flows);
  if (block.empty()) {
    result.status = TransferStatus::kSocketError;
    result.error = "cannot listen on control port " + std::to_string(first);
    if (flows > 1) result.error += "-" + std::to_string(first + flows - 1);
  }
  return block;
}

/// Validates one transfer's options against its object span, builds the
/// plan both peers share, and resolves every flow once, before any
/// launches: flow i's ports (data_port + i, control_port + i, so both
/// blocks must fit below 65536), its stripe's geometry and bytes, and
/// its parsed fault plan (its stripe_fault_plans entry, else
/// endpoint.fault_plan, else FOBS_FAULT_PLAN). Each flow starts with the
/// caller's tracer. Empty, with `error` set, when the options are
/// rejected.
template <typename Options, typename Byte>
std::vector<detail::Flow<Byte>> make_flows(const Options& options, std::span<Byte> bytes,
                                           std::string& error) {
  error = "invalid options: ";
  if (options.data_port == 0 || options.control_port == 0) {
    error += "data_port and control_port must be non-zero";
    return {};
  }
  if (options.endpoint.packet_bytes <= 0 || options.endpoint.packet_bytes > kMaxPacketBytes) {
    error += "packet_bytes must be in [1, " + std::to_string(kMaxPacketBytes) + "]";
    return {};
  }
  if (bytes.empty()) {
    error += std::is_const_v<Byte> ? "cannot send an empty object"
                                   : "cannot receive into an empty buffer";
    return {};
  }
  if (options.data_port + options.stripes - 1 > 0xFFFF ||
      options.control_port + options.stripes - 1 > 0xFFFF) {
    error += "stripe port block exceeds the port space";
    return {};
  }
  stripe::StripePlan plan;
  std::string plan_error;
  if (!stripe::StripePlan::make({static_cast<std::int64_t>(bytes.size()),
                                 options.endpoint.packet_bytes},
                                options.stripes, &plan, &plan_error)) {
    error += "stripe plan rejected: " + plan_error;
    return {};
  }
  error.clear();
  const char* env_plan = std::getenv("FOBS_FAULT_PLAN");
  std::vector<detail::Flow<Byte>> flows(static_cast<std::size_t>(plan.stripe_count()));
  for (int i = 0; i < plan.stripe_count(); ++i) {
    const auto index = static_cast<std::size_t>(i);
    auto& flow = flows[index];
    flow.data_port = static_cast<std::uint16_t>(options.data_port + i);
    flow.control_port = static_cast<std::uint16_t>(options.control_port + i);
    flow.spec = plan.stripe_spec(i);
    flow.first_packet = plan.first_packet(i);
    flow.stripe = bytes.subspan(
        static_cast<std::size_t>(plan.spec().offset_of(flow.first_packet)),
        static_cast<std::size_t>(flow.spec.object_bytes));
    flow.tracer = options.endpoint.tracer;
    std::string fault_spec = options.endpoint.fault_plan;
    if (index < options.stripe_fault_plans.size() && !options.stripe_fault_plans[index].empty()) {
      fault_spec = options.stripe_fault_plans[index];
    }
    if (fault_spec.empty() && env_plan != nullptr) fault_spec = env_plan;
    std::string parse_error;
    auto fault_plan = fobs::net::FaultPlan::parse(fault_spec, &parse_error);
    if (fault_plan && !fault_plan->control.empty()) {
      // The control stream is a TCP byte stream the flow sessions never
      // perturb; a plan that asks for it would run clean.
      fault_plan.reset();
      parse_error = "control.* faults apply only in the simulator";
    }
    if (!fault_plan) {
      error = "invalid fault plan: " + parse_error;
      if (flows.size() > 1) error = "stripe " + std::to_string(i) + ": " + error;
      return {};
    }
    if (!fault_plan->empty()) flow.fault_plan = std::move(*fault_plan);
  }
  return flows;
}

/// Installs a "nanoseconds since `start`" clock on `tracer` and records
/// the transfer_start event.
void begin_trace(fobs::telemetry::EventTracer& tracer,
                 std::chrono::steady_clock::time_point start, std::int64_t packet_count) {
  tracer.set_clock([start] {
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now() - start)
        .count();
  });
  tracer.record(telemetry::EventType::kTransferStart, -1, packet_count);
}

/// Books one flow's outcome: its `fobs.posix.<side>.*` counter and its
/// terminal trace event — a timeout event for the give-up statuses, an
/// error event for hard failures, none for completion or cancellation.
void book_outcome(const char* side, fobs::telemetry::EventTracer* tracer,
                  TransferStatus status) {
  const char* outcome = "errors";
  auto event = telemetry::EventType::kError;
  switch (status) {
    case TransferStatus::kCompleted: outcome = "completed"; break;
    case TransferStatus::kCancelled: outcome = "cancelled"; break;
    case TransferStatus::kTimeout:
    case TransferStatus::kStalled:
    case TransferStatus::kPeerLost:
      outcome = "timeouts";
      event = telemetry::EventType::kTimeout;
      break;
    default: break;
  }
  telemetry::MetricsRegistry::global()
      .counter(std::string("fobs.posix.") + side + "." + outcome)
      .inc();
  const bool ended = status == TransferStatus::kCompleted || status == TransferStatus::kCancelled;
  if (tracer != nullptr && !ended) tracer->record(event);
}

}  // namespace

namespace detail {

/// A send transfer's role: its flows and, until flow i takes it, flow
/// i's bound control listener.
struct SendJob {
  static constexpr const char* kSide = "sender";
  SenderOptions options;
  std::vector<SendFlow> flows;
  std::vector<fobs::net::Fd> control_listeners;

  /// Flow `i` owns its listener: the control port closes when it ends.
  FlowResult run(std::size_t i, const std::atomic<bool>* cancel) {
    return run_sender(options, flows[i], std::move(control_listeners[i]), cancel);
  }
  void conclude(TransferResult& /*result*/) {}
};

/// A receive transfer's role: its flows, its checkpoint (null without a
/// path) and the caller's write-behind sink (nullable).
struct ReceiveJob {
  static constexpr const char* kSide = "receiver";
  ReceiverOptions options;
  std::vector<ReceiveFlow> flows;
  std::unique_ptr<TransferCheckpoint> checkpoint;
  fobs::core::WriteBehindSink* write_behind = nullptr;

  FlowResult run(std::size_t i, const std::atomic<bool>* cancel) {
    return run_receiver(options, flows[i], checkpoint.get(), write_behind, cancel);
  }
  /// Every flow has ended: a completed receive folds the stripes'
  /// checksums in plan order and removes the checkpoint, the one place
  /// it is removed.
  void conclude(TransferResult& result) {
    if (result.completed()) {
      for (std::size_t i = 0; i < flows.size(); ++i) {
        result.checksum = fobs::util::crc32_combine(
            result.checksum, result.flows[i].checksum,
            static_cast<std::size_t>(flows[i].spec.object_bytes));
      }
      if (checkpoint) checkpoint->complete();
    }
    result.resumable = checkpoint && checkpoint->on_disk();
  }
};

/// One engine transfer: submission inputs, lifecycle state, and the
/// aggregate result its flows fold into. Shared between the engine,
/// the workers running its flows, and every TransferHandle pointing at
/// it.
struct Transfer {
  std::uint64_t id = 0;
  /// The transfer's one role. Its options are read by every flow; each
  /// flow's own ports, stripe, fault plan and tracer are in its Flow,
  /// resolved at submit. No flows when the transfer was rejected (no
  /// flow ever ran).
  std::variant<SendJob, ReceiveJob> job;
  /// Geometry of the whole object.
  fobs::core::TransferSpec spec;
  std::shared_ptr<void> keepalive;
  std::function<void(const TransferHandle&)> on_exit;
  /// Engine-owned per-flow tracers (EngineOptions::session_tracers)
  /// when the submitted options carried none.
  std::vector<std::unique_ptr<fobs::telemetry::EventTracer>> owned_tracers;

  /// Polled by every flow's driver loop once per iteration.
  std::atomic<bool> cancel{false};

  std::mutex mu;
  std::condition_variable cv;
  TransferStatus status = TransferStatus::kPending;  ///< guarded by mu
  int flows_running = 0;                             ///< guarded by mu
  TransferResult result;                             ///< guarded by mu until terminal

  [[nodiscard]] int flows() const {
    return std::visit([](const auto& j) { return static_cast<int>(j.flows.size()); }, job);
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// TransferHandle
// ---------------------------------------------------------------------------

std::uint64_t TransferHandle::id() const { return transfer_ ? transfer_->id : 0; }

TransferStatus TransferHandle::status() const {
  if (!transfer_) return TransferStatus::kPending;
  std::lock_guard lock(transfer_->mu);
  return transfer_->status;
}

TransferStatus TransferHandle::wait() const {
  if (!transfer_) return TransferStatus::kPending;
  std::unique_lock lock(transfer_->mu);
  transfer_->cv.wait(lock, [&] { return is_terminal(transfer_->status); });
  return transfer_->status;
}

bool TransferHandle::wait_for(std::chrono::milliseconds timeout) const {
  if (!transfer_) return false;
  std::unique_lock lock(transfer_->mu);
  return transfer_->cv.wait_for(lock, timeout, [&] { return is_terminal(transfer_->status); });
}

void TransferHandle::cancel() const {
  if (transfer_) transfer_->cancel.store(true, std::memory_order_relaxed);
}

const TransferResult& TransferHandle::result() const {
  static const TransferResult kNoResult{};
  if (!transfer_) return kNoResult;
  std::lock_guard lock(transfer_->mu);
  return transfer_->result;
}

fobs::telemetry::EventTracer* TransferHandle::tracer(int flow) const {
  if (!transfer_ || flow < 0 || flow >= transfer_->flows()) return nullptr;
  const auto index = static_cast<std::size_t>(flow);
  return std::visit([index](const auto& j) { return j.flows[index].tracer; }, transfer_->job);
}

// ---------------------------------------------------------------------------
// TransferEngine
// ---------------------------------------------------------------------------

struct TransferEngine::Impl {
  explicit Impl(EngineOptions opts)
      : options(opts),
        pool(opts.workers == 0 ? 0 : std::max<std::size_t>(1, opts.workers)) {}

  EngineOptions options;

  mutable std::mutex mu;
  std::condition_variable idle_cv;
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::Transfer>> live;
  std::uint64_t next_id = 1;

  std::atomic<std::uint64_t> submitted{0};
  std::atomic<std::uint64_t> completed{0};
  std::atomic<std::uint64_t> failed{0};

  // Acceptor state. The listener fd is only mutated while no acceptor
  // thread runs; the stop flag wakes the poll loop.
  std::atomic<bool> acceptor_stop{false};
  fobs::net::Fd acceptor_fd;
  std::function<void(fobs::net::Fd, std::string)> acceptor_handler;
  std::thread acceptor_thread;
  // Handler tasks dispatched to the pool and not yet finished. They run
  // user code that calls back into the engine, so stop_acceptor() must
  // not return (and teardown must not proceed) while any are in flight.
  std::size_t inflight_handlers = 0;  ///< guarded by mu
  std::condition_variable handlers_cv;

  // Declared last: destroyed first, so workers (which touch the fields
  // above through run_flow) finish before anything else goes away.
  fobs::util::ThreadPool pool;
};

TransferEngine::TransferEngine(EngineOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

TransferEngine::~TransferEngine() {
  stop_acceptor();
  cancel_all();
  wait_idle();
  // impl_ destruction joins the pool; queued flows (already flagged
  // cancelled) drain through their fast cancel path first.
}

TransferHandle TransferEngine::submit_send(const SenderOptions& options,
                                           std::span<const std::uint8_t> object,
                                           SessionParams params) {
  auto transfer = std::make_shared<detail::Transfer>();
  auto& job = transfer->job.emplace<detail::SendJob>();
  job.options = options;
  transfer->spec = {static_cast<std::int64_t>(object.size()), options.endpoint.packet_bytes};
  auto& result = transfer->result;
  job.flows = make_flows(options, object, result.error);
  if (!job.flows.empty()) {
    job.control_listeners = hold_control_ports(
        options.control_port, transfer->flows(), std::move(params.control_listeners), result);
    if (job.control_listeners.empty()) job.flows.clear();
  }
  return submit(std::move(transfer), std::move(params));
}

TransferHandle TransferEngine::submit_receive(const ReceiverOptions& options,
                                              std::span<std::uint8_t> buffer,
                                              SessionParams params,
                                              fobs::core::WriteBehindSink* write_behind) {
  auto transfer = std::make_shared<detail::Transfer>();
  auto& job = transfer->job.emplace<detail::ReceiveJob>();
  job.options = options;
  job.write_behind = write_behind;
  transfer->spec = {static_cast<std::int64_t>(buffer.size()), options.endpoint.packet_bytes};
  job.flows = make_flows(options, buffer, transfer->result.error);
  if (!job.flows.empty() && !options.checkpoint_path.empty()) {
    job.checkpoint = std::make_unique<TransferCheckpoint>(
        options.checkpoint_path, transfer->spec.object_bytes, transfer->spec.packet_bytes);
  }
  return submit(std::move(transfer), std::move(params));
}

TransferHandle TransferEngine::submit(std::shared_ptr<detail::Transfer> transfer,
                                      SessionParams params) {
  auto& metrics = telemetry::MetricsRegistry::global();
  metrics.counter("fobs.stripe.transfers").inc();
  transfer->keepalive = std::move(params.keepalive);
  transfer->on_exit = std::move(params.on_exit);
  transfer->result.is_sender = std::holds_alternative<detail::SendJob>(transfer->job);
  const int flows = transfer->flows();
  transfer->result.stripes = flows;
  transfer->result.flows.resize(static_cast<std::size_t>(flows));
  {
    std::lock_guard lock(impl_->mu);
    transfer->id = impl_->next_id++;
    if (flows > 0) impl_->live.emplace(transfer->id, transfer);
  }
  TransferHandle handle(transfer);
  if (flows == 0) {
    // Rejected (bad options, or a control port the send could not
    // hold): terminal before any flow exists.
    if (transfer->result.status == TransferStatus::kPending) {
      transfer->result.status = TransferStatus::kBadOptions;
    }
    transfer->status = transfer->result.status;
    impl_->failed.fetch_add(1, std::memory_order_relaxed);
    if (transfer->on_exit) transfer->on_exit(handle);
    return handle;
  }
  // One clock and one transfer_start per distinct tracer: flows that
  // share the caller's tracer write one timeline for the transfer.
  const auto start = std::chrono::steady_clock::now();
  std::visit(
      [&](auto& job) {
        if (auto* shared = job.options.endpoint.tracer) {
          begin_trace(*shared, start, transfer->spec.packet_count());
        } else if (impl_->options.session_tracers) {
          for (auto& flow : job.flows) {
            flow.tracer = transfer->owned_tracers
                              .emplace_back(std::make_unique<fobs::telemetry::EventTracer>())
                              .get();
            begin_trace(*flow.tracer, start, flow.spec.packet_count());
          }
        }
      },
      transfer->job);
  transfer->flows_running = flows;
  for (int i = 0; i < flows; ++i) {
    impl_->submitted.fetch_add(1, std::memory_order_relaxed);
    metrics.counter("fobs.engine.sessions_submitted").inc();
    impl_->pool.submit([this, transfer, i] { run_flow(transfer, i); });
  }
  return handle;
}

void TransferEngine::run_flow(const std::shared_ptr<detail::Transfer>& transfer, int flow) {
  {
    std::lock_guard lock(transfer->mu);
    if (transfer->status == TransferStatus::kPending) {
      transfer->status = TransferStatus::kRunning;
    }
  }
  transfer->cv.notify_all();
  // The one place every flow's result passes: its terminal trace event
  // and its fobs.posix.<side>.* counters are booked here.
  const auto index = static_cast<std::size_t>(flow);
  std::visit(
      [&](auto& job) {
        telemetry::MetricsRegistry::global()
            .counter(std::string("fobs.posix.") + job.kSide + ".transfers")
            .inc();
        auto result = job.run(index, &transfer->cancel);
        const TransferStatus status = result.status;
        {
          std::lock_guard lock(transfer->mu);
          transfer->result.flows[index] = std::move(result);
        }
        book_outcome(job.kSide, job.flows[index].tracer, status);
      },
      transfer->job);
  bool last = false;
  {
    std::lock_guard lock(transfer->mu);
    last = --transfer->flows_running == 0;
  }
  if (last) finish(transfer);
}

void TransferEngine::finish(const std::shared_ptr<detail::Transfer>& transfer) {
  bool completed = false;
  {
    std::lock_guard lock(transfer->mu);
    auto& result = transfer->result;
    finalize_aggregate(result, transfer->spec.object_bytes);
    std::visit([&](auto& job) { job.conclude(result); }, transfer->job);
    transfer->status = result.status;
    completed = result.completed();
  }
  transfer->cv.notify_all();
  (completed ? impl_->completed : impl_->failed).fetch_add(1, std::memory_order_relaxed);
  bool idle = false;
  {
    std::lock_guard lock(impl_->mu);
    impl_->live.erase(transfer->id);
    idle = impl_->live.empty();
  }
  if (idle) impl_->idle_cv.notify_all();
  if (transfer->on_exit) transfer->on_exit(TransferHandle(transfer));
  // The keepalive (e.g. an mmap'd file) is dropped with the transfer's
  // last handle, not here: on_exit observers may still read the spans.
}

bool TransferEngine::start_acceptor(
    std::uint16_t port, std::function<void(fobs::net::Fd, std::string)> handler) {
  if (impl_->acceptor_thread.joinable() || !handler) return false;
  fobs::net::Fd listener = fobs::net::listen_tcp(port, 16);
  if (!listener.valid()) return false;
  impl_->acceptor_fd = std::move(listener);
  impl_->acceptor_handler = std::move(handler);
  impl_->acceptor_stop.store(false);
  impl_->acceptor_thread = std::thread([this] { acceptor_loop(); });
  return true;
}

void TransferEngine::acceptor_loop() {
  while (!impl_->acceptor_stop.load(std::memory_order_relaxed)) {
    pollfd pfd{impl_->acceptor_fd.get(), POLLIN, 0};
    const int ready = ::poll(&pfd, 1, 100);
    if (ready <= 0) continue;
    auto conn = fobs::net::accept_peer(impl_->acceptor_fd);
    if (!conn.fd.valid()) continue;
    telemetry::MetricsRegistry::global().counter("fobs.engine.connections_accepted").inc();
    // Each connection is handled on the pool, so a slow client never
    // blocks the accept loop — this is what makes the catalog
    // concurrent. The in-flight count covers the task from enqueue to
    // return, including time spent queued behind busy workers.
    {
      std::lock_guard lock(impl_->mu);
      ++impl_->inflight_handlers;
    }
    impl_->pool.submit(
        [this, handler = impl_->acceptor_handler, conn = std::move(conn)]() mutable {
          handler(std::move(conn.fd), std::move(conn.peer_host));
          std::lock_guard lock(impl_->mu);
          if (--impl_->inflight_handlers == 0) impl_->handlers_cv.notify_all();
        });
  }
}

void TransferEngine::stop_acceptor() {
  if (!impl_->acceptor_thread.joinable()) return;
  impl_->acceptor_stop.store(true);
  impl_->acceptor_thread.join();
  impl_->acceptor_fd.reset();
  // Quiesce dispatched handlers before the caller may tear anything
  // down: a handler mid-flight still holds the engine (and whatever the
  // handler closure captured).
  {
    std::unique_lock lock(impl_->mu);
    impl_->handlers_cv.wait(lock, [&] { return impl_->inflight_handlers == 0; });
  }
  impl_->acceptor_handler = nullptr;
}

bool TransferEngine::acceptor_running() const { return impl_->acceptor_thread.joinable(); }

std::size_t TransferEngine::active_sessions() const {
  std::lock_guard lock(impl_->mu);
  return impl_->live.size();
}

std::uint64_t TransferEngine::sessions_submitted() const {
  return impl_->submitted.load(std::memory_order_relaxed);
}

std::uint64_t TransferEngine::sessions_completed() const {
  return impl_->completed.load(std::memory_order_relaxed);
}

std::uint64_t TransferEngine::sessions_failed() const {
  return impl_->failed.load(std::memory_order_relaxed);
}

void TransferEngine::cancel_all() {
  std::lock_guard lock(impl_->mu);
  for (auto& [id, transfer] : impl_->live) {
    transfer->cancel.store(true, std::memory_order_relaxed);
  }
}

void TransferEngine::wait_idle() {
  std::unique_lock lock(impl_->mu);
  impl_->idle_cv.wait(lock, [&] { return impl_->live.empty(); });
}

// ---------------------------------------------------------------------------
// Blocking calls: one transfer on a private engine with a worker per
// flow, waited to completion.
// ---------------------------------------------------------------------------

namespace {

std::size_t flow_workers(int stripes) {
  return static_cast<std::size_t>(std::clamp(stripes, 1, stripe::kMaxStripes));
}

}  // namespace

TransferResult send_object(const SenderOptions& options, std::span<const std::uint8_t> object) {
  TransferEngine engine(EngineOptions{.workers = flow_workers(options.stripes)});
  auto handle = engine.submit_send(options, object);
  handle.wait();
  return handle.result();
}

TransferResult receive_object(const ReceiverOptions& options, std::span<std::uint8_t> buffer,
                              fobs::core::WriteBehindSink* write_behind) {
  TransferEngine engine(EngineOptions{.workers = flow_workers(options.stripes)});
  auto handle = engine.submit_receive(options, buffer, {}, write_behind);
  handle.wait();
  return handle.result();
}

}  // namespace fobs::posix

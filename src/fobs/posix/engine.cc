#include "fobs/posix/engine.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <mutex>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common/thread_pool.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/port_allocator.h"
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

/// Derives every aggregate field of `result` from its per-flow vectors
/// (exactly one of which is populated). A failed flow's error is
/// prefixed with its index when the transfer has more than one.
void finalize_aggregate(TransferResult& result, std::int64_t object_bytes) {
  double slowest = 0.0;
  TransferStatus worst = TransferStatus::kCompleted;
  std::string worst_error;
  auto fold = [&](int index, TransferStatus status, const std::string& error, double elapsed,
                  const fobs::net::IoStats& io) {
    if (status == TransferStatus::kCompleted) {
      ++result.stripes_completed;
    } else if (severity(status) > severity(worst) || worst == TransferStatus::kCompleted) {
      worst = status;
      worst_error = error;
      if (result.stripes > 1) worst_error = "stripe " + std::to_string(index) + ": " + error;
    }
    slowest = std::max(slowest, elapsed);
    result.io += io;
  };
  for (std::size_t i = 0; i < result.stripe_senders.size(); ++i) {
    const auto& r = result.stripe_senders[i];
    fold(static_cast<int>(i), r.status, r.error, r.elapsed_seconds, r.io);
  }
  for (std::size_t i = 0; i < result.stripe_receivers.size(); ++i) {
    const auto& r = result.stripe_receivers[i];
    fold(static_cast<int>(i), r.status, r.error, r.elapsed_seconds, r.io);
    result.packets_restored += r.packets_restored;
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

/// Validates one transfer's options against its object span and builds
/// the plan both peers share; nullptr (with `error` set) when the
/// options are rejected. Flow i uses ports data_port + i and
/// control_port + i, so both blocks must fit below 65536.
template <typename Options>
std::shared_ptr<const stripe::StripePlan> make_plan(const Options& options,
                                                    std::size_t span_bytes,
                                                    const char* empty_span_error,
                                                    std::string& error) {
  error = "invalid options: ";
  if (options.data_port == 0 || options.control_port == 0) {
    error += "data_port and control_port must be non-zero";
    return nullptr;
  }
  if (options.endpoint.packet_bytes <= 0) {
    error += "packet_bytes must be positive";
    return nullptr;
  }
  if (span_bytes == 0) {
    error += empty_span_error;
    return nullptr;
  }
  if (options.data_port + options.stripes - 1 > 0xFFFF ||
      options.control_port + options.stripes - 1 > 0xFFFF) {
    error += "stripe port block exceeds the port space";
    return nullptr;
  }
  stripe::StripePlan plan;
  std::string plan_error;
  if (!stripe::StripePlan::make({static_cast<std::int64_t>(span_bytes),
                                 options.endpoint.packet_bytes},
                                options.stripes, &plan, &plan_error)) {
    error += "stripe plan rejected: " + plan_error;
    return nullptr;
  }
  error.clear();
  return std::make_shared<const stripe::StripePlan>(std::move(plan));
}

/// Flow `flow`'s copy of a transfer's options: ports offset by the
/// index, the per-flow fault-plan override, and the flow's tracer.
template <typename Options>
Options flow_options(const Options& options, int flow, fobs::telemetry::EventTracer* tracer) {
  Options out = options;
  out.data_port = static_cast<std::uint16_t>(options.data_port + flow);
  out.control_port = static_cast<std::uint16_t>(options.control_port + flow);
  const auto index = static_cast<std::size_t>(flow);
  if (index < options.stripe_fault_plans.size() && !options.stripe_fault_plans[index].empty()) {
    out.endpoint.fault_plan = options.stripe_fault_plans[index];
  }
  out.endpoint.tracer = tracer;
  return out;
}

}  // namespace

namespace detail {

/// One engine transfer: submission inputs, lifecycle state, and the
/// aggregate result its flows fold into. Shared between the engine,
/// the workers running its flows, and every TransferHandle pointing at
/// it.
struct Transfer {
  std::uint64_t id = 0;
  bool is_sender = false;
  /// Transfer-level options; flow_options() derives each flow's copy.
  SenderOptions send_options;
  ReceiverOptions recv_options;
  std::span<const std::uint8_t> object;
  std::span<std::uint8_t> buffer;
  /// Null when the options were rejected (no flow ever ran).
  std::shared_ptr<const stripe::StripePlan> plan;
  std::shared_ptr<void> keepalive;
  bool owns_control_ports = false;
  std::function<void(const TransferHandle&)> on_exit;
  /// Engine-owned per-flow tracers (EngineOptions::session_tracers)
  /// when the submitted options carried none.
  std::vector<std::unique_ptr<fobs::telemetry::EventTracer>> owned_tracers;

  /// Polled by every flow's driver loop once per iteration.
  std::atomic<bool> cancel{false};

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  TransferStatus status = TransferStatus::kPending;  ///< guarded by mu
  int flows_running = 0;                             ///< guarded by mu
  TransferResult result;                             ///< guarded by mu until terminal

  [[nodiscard]] int flows() const { return plan ? plan->stripe_count() : 0; }
  [[nodiscard]] const EndpointOptions& endpoint() const {
    return is_sender ? send_options.endpoint : recv_options.endpoint;
  }
  [[nodiscard]] std::uint16_t control_port() const {
    return is_sender ? send_options.control_port : recv_options.control_port;
  }
  /// The requested flow count; flows() once the plan is built.
  [[nodiscard]] int stripes() const {
    return is_sender ? send_options.stripes : recv_options.stripes;
  }
  [[nodiscard]] fobs::telemetry::EventTracer* flow_tracer(int flow) const {
    if (!owned_tracers.empty()) return owned_tracers[static_cast<std::size_t>(flow)].get();
    return endpoint().tracer;
  }

  [[nodiscard]] TransferStatus current_status() const {
    std::lock_guard lock(mu);
    return status;
  }
};

}  // namespace detail

// ---------------------------------------------------------------------------
// TransferHandle
// ---------------------------------------------------------------------------

std::uint64_t TransferHandle::id() const { return transfer_ ? transfer_->id : 0; }

TransferStatus TransferHandle::status() const {
  return transfer_ ? transfer_->current_status() : TransferStatus::kPending;
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
  return transfer_->flow_tracer(flow);
}

// ---------------------------------------------------------------------------
// TransferEngine
// ---------------------------------------------------------------------------

struct TransferEngine::Impl {
  explicit Impl(EngineOptions opts)
      : options(opts),
        ports(opts.control_port_base, opts.control_port_count),
        pool(opts.workers == 0 ? 0 : std::max<std::size_t>(1, opts.workers)) {}

  EngineOptions options;
  /// Range clamping (wrap past 65535, base 0 = disabled) lives in the
  /// allocator itself; internally synchronized, so no `mu` here.
  PortAllocator ports;

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
  std::function<void(int, std::string)> acceptor_handler;
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
  transfer->is_sender = true;
  transfer->send_options = options;
  transfer->object = object;
  transfer->plan = make_plan(options, object.size(), "cannot send an empty object",
                             transfer->result.error);
  transfer->result.stripe_senders.resize(static_cast<std::size_t>(transfer->flows()));
  return submit(std::move(transfer), std::move(params));
}

TransferHandle TransferEngine::submit_receive(const ReceiverOptions& options,
                                              std::span<std::uint8_t> buffer,
                                              SessionParams params) {
  auto transfer = std::make_shared<detail::Transfer>();
  transfer->recv_options = options;
  transfer->buffer = buffer;
  transfer->plan = make_plan(options, buffer.size(), "cannot receive into an empty buffer",
                             transfer->result.error);
  transfer->result.stripe_receivers.resize(static_cast<std::size_t>(transfer->flows()));
  return submit(std::move(transfer), std::move(params));
}

TransferHandle TransferEngine::submit(std::shared_ptr<detail::Transfer> transfer,
                                      SessionParams params) {
  auto& metrics = telemetry::MetricsRegistry::global();
  metrics.counter("fobs.stripe.transfers").inc();
  transfer->keepalive = std::move(params.keepalive);
  transfer->owns_control_ports = params.owns_control_ports;
  transfer->on_exit = std::move(params.on_exit);
  transfer->result.is_sender = transfer->is_sender;
  const int flows = transfer->flows();
  transfer->result.stripes = flows;
  {
    std::lock_guard lock(impl_->mu);
    transfer->id = impl_->next_id++;
    if (flows > 0) impl_->live.emplace(transfer->id, transfer);
  }
  TransferHandle handle(transfer);
  if (flows == 0) {
    // Rejected options: terminal before any flow exists.
    transfer->status = transfer->result.status = TransferStatus::kBadOptions;
    if (transfer->owns_control_ports) {
      const int leased = std::clamp(transfer->stripes(), 0, stripe::kMaxStripes);
      impl_->ports.release_block(transfer->control_port(), static_cast<std::size_t>(leased));
    }
    impl_->failed.fetch_add(1, std::memory_order_relaxed);
    if (transfer->on_exit) transfer->on_exit(handle);
    return handle;
  }
  if (impl_->options.session_tracers && transfer->endpoint().tracer == nullptr) {
    for (int i = 0; i < flows; ++i) {
      transfer->owned_tracers.push_back(std::make_unique<fobs::telemetry::EventTracer>());
    }
  }
  transfer->flows_running = flows;
  metrics.counter("fobs.stripe.sessions").inc(flows);
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
  auto* tracer = transfer->flow_tracer(flow);
  const auto index = static_cast<std::size_t>(flow);
  if (transfer->is_sender) {
    auto result =
        detail::run_sender(flow_options(transfer->send_options, flow, tracer), *transfer->plan,
                           flow, transfer->object, &transfer->cancel);
    std::lock_guard lock(transfer->mu);
    transfer->result.stripe_senders[index] = std::move(result);
  } else {
    auto result = detail::run_receiver(flow_options(transfer->recv_options, flow, tracer),
                                       *transfer->plan, flow, transfer->buffer,
                                       &transfer->cancel);
    std::lock_guard lock(transfer->mu);
    transfer->result.stripe_receivers[index] = std::move(result);
  }
  if (transfer->owns_control_ports) {
    impl_->ports.release(static_cast<std::uint16_t>(transfer->control_port() + flow));
  }
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
    finalize_aggregate(result, transfer->plan->spec().object_bytes);
    const std::string& checkpoint = transfer->recv_options.checkpoint_path;
    result.resumable = !transfer->is_sender && !result.completed() && !checkpoint.empty() &&
                       load_checkpoint(checkpoint).has_value();
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

std::size_t TransferEngine::free_control_ports() const { return impl_->ports.free_count(); }

std::size_t TransferEngine::control_port_capacity() const { return impl_->ports.capacity(); }

std::optional<std::uint16_t> TransferEngine::allocate_control_port_block(std::size_t count) {
  return impl_->ports.allocate_block(count);
}

void TransferEngine::release_control_port_block(std::uint16_t first, std::size_t count) {
  impl_->ports.release_block(first, count);
}

bool TransferEngine::start_acceptor(std::uint16_t port,
                                    std::function<void(int, std::string)> handler) {
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
    sockaddr_in peer{};
    socklen_t peer_len = sizeof peer;
    const int conn = ::accept(impl_->acceptor_fd.get(), reinterpret_cast<sockaddr*>(&peer),
                              &peer_len);
    if (conn < 0) continue;
    char host[64] = {0};
    ::inet_ntop(AF_INET, &peer.sin_addr, host, sizeof host);
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
        [this, handler = impl_->acceptor_handler, conn, peer_host = std::string(host)]() mutable {
          handler(conn, std::move(peer_host));
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

TransferResult receive_object(const ReceiverOptions& options, std::span<std::uint8_t> buffer) {
  TransferEngine engine(EngineOptions{.workers = flow_workers(options.stripes)});
  auto handle = engine.submit_receive(options, buffer);
  handle.wait();
  return handle.result();
}

}  // namespace fobs::posix

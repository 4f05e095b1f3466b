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
#include "fobs/posix/port_allocator.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::posix {

namespace detail {

/// One engine session: submission inputs, lifecycle state, and the
/// final result. Shared between the engine, the worker running it, and
/// every TransferHandle pointing at it.
struct Session {
  std::uint64_t id = 0;
  bool is_sender = false;
  SenderOptions send_options;
  ReceiverOptions recv_options;
  std::span<const std::uint8_t> object;
  std::span<std::uint8_t> buffer;
  std::shared_ptr<void> keepalive;
  std::uint16_t owned_control_port = 0;
  std::function<void(const TransferHandle&)> on_exit;
  /// Engine-owned tracer (EngineOptions::session_tracers) when the
  /// submitted options carried none.
  std::unique_ptr<fobs::telemetry::EventTracer> owned_tracer;

  /// Polled by the driver loop once per iteration.
  std::atomic<bool> cancel{false};

  mutable std::mutex mu;
  mutable std::condition_variable cv;
  TransferStatus status = TransferStatus::kPending;  ///< guarded by mu
  SenderResult sender_result;                        ///< guarded by mu until terminal
  ReceiverResult receiver_result;                    ///< guarded by mu until terminal

  void set_status(TransferStatus next) {
    {
      std::lock_guard lock(mu);
      status = next;
    }
    cv.notify_all();
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

std::uint64_t TransferHandle::id() const { return session_ ? session_->id : 0; }

TransferStatus TransferHandle::status() const {
  return session_ ? session_->current_status() : TransferStatus::kPending;
}

TransferStatus TransferHandle::wait() const {
  if (!session_) return TransferStatus::kPending;
  std::unique_lock lock(session_->mu);
  session_->cv.wait(lock, [&] { return is_terminal(session_->status); });
  return session_->status;
}

bool TransferHandle::wait_for(std::chrono::milliseconds timeout) const {
  if (!session_) return false;
  std::unique_lock lock(session_->mu);
  return session_->cv.wait_for(lock, timeout, [&] { return is_terminal(session_->status); });
}

void TransferHandle::cancel() const {
  if (session_) session_->cancel.store(true, std::memory_order_relaxed);
}

const SenderResult& TransferHandle::sender_result() const {
  static const SenderResult kNoSenderResult{};
  if (!session_) return kNoSenderResult;
  std::lock_guard lock(session_->mu);
  return session_->sender_result;
}

const ReceiverResult& TransferHandle::receiver_result() const {
  static const ReceiverResult kNoReceiverResult{};
  if (!session_) return kNoReceiverResult;
  std::lock_guard lock(session_->mu);
  return session_->receiver_result;
}

bool TransferHandle::is_sender() const { return session_ && session_->is_sender; }

fobs::telemetry::EventTracer* TransferHandle::tracer() const {
  if (!session_) return nullptr;
  if (session_->owned_tracer) return session_->owned_tracer.get();
  return session_->is_sender ? session_->send_options.endpoint.tracer
                             : session_->recv_options.endpoint.tracer;
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
  std::unordered_map<std::uint64_t, std::shared_ptr<detail::Session>> live;
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
  // above through run_session) finish before anything else goes away.
  fobs::util::ThreadPool pool;
};

TransferEngine::TransferEngine(EngineOptions options)
    : impl_(std::make_unique<Impl>(options)) {}

TransferEngine::~TransferEngine() {
  stop_acceptor();
  cancel_all();
  wait_idle();
  // impl_ destruction joins the pool; queued sessions (already flagged
  // cancelled) drain through their fast cancel path first.
}

TransferHandle TransferEngine::submit(std::shared_ptr<detail::Session> session,
                                      SessionParams params) {
  session->keepalive = std::move(params.keepalive);
  session->owned_control_port = params.owned_control_port;
  session->on_exit = std::move(params.on_exit);
  {
    std::lock_guard lock(impl_->mu);
    session->id = impl_->next_id++;
    impl_->live.emplace(session->id, session);
  }
  impl_->submitted.fetch_add(1, std::memory_order_relaxed);
  telemetry::MetricsRegistry::global().counter("fobs.engine.sessions_submitted").inc();
  TransferHandle handle(session);
  impl_->pool.submit([this, session] { run_session(session); });
  return handle;
}

TransferHandle TransferEngine::submit_send(const SenderOptions& options,
                                           std::span<const std::uint8_t> object,
                                           SessionParams params) {
  auto session = std::make_shared<detail::Session>();
  session->is_sender = true;
  session->send_options = options;
  session->object = object;
  if (impl_->options.session_tracers && session->send_options.endpoint.tracer == nullptr) {
    session->owned_tracer = std::make_unique<fobs::telemetry::EventTracer>();
    session->send_options.endpoint.tracer = session->owned_tracer.get();
  }
  return submit(std::move(session), std::move(params));
}

TransferHandle TransferEngine::submit_receive(const ReceiverOptions& options,
                                              std::span<std::uint8_t> buffer,
                                              SessionParams params) {
  auto session = std::make_shared<detail::Session>();
  session->is_sender = false;
  session->recv_options = options;
  session->buffer = buffer;
  if (impl_->options.session_tracers && session->recv_options.endpoint.tracer == nullptr) {
    session->owned_tracer = std::make_unique<fobs::telemetry::EventTracer>();
    session->recv_options.endpoint.tracer = session->owned_tracer.get();
  }
  return submit(std::move(session), std::move(params));
}

void TransferEngine::run_session(const std::shared_ptr<detail::Session>& session) {
  session->set_status(TransferStatus::kRunning);
  TransferStatus final_status;
  if (session->is_sender) {
    auto result = detail::run_sender(session->send_options, session->object, &session->cancel);
    final_status = result.status;
    {
      std::lock_guard lock(session->mu);
      session->sender_result = std::move(result);
      session->status = final_status;
    }
  } else {
    auto result =
        detail::run_receiver(session->recv_options, session->buffer, &session->cancel);
    final_status = result.status;
    {
      std::lock_guard lock(session->mu);
      session->receiver_result = std::move(result);
      session->status = final_status;
    }
  }
  session->cv.notify_all();
  if (final_status == TransferStatus::kCompleted) {
    impl_->completed.fetch_add(1, std::memory_order_relaxed);
  } else {
    impl_->failed.fetch_add(1, std::memory_order_relaxed);
  }
  finish_session(session);
  if (session->on_exit) session->on_exit(TransferHandle(session));
  // The keepalive (e.g. an mmap'd file) is dropped with the session's
  // last handle, not here: on_exit observers may still read the spans.
}

void TransferEngine::finish_session(const std::shared_ptr<detail::Session>& session) {
  bool idle = false;
  impl_->ports.release(session->owned_control_port);
  {
    std::lock_guard lock(impl_->mu);
    impl_->live.erase(session->id);
    idle = impl_->live.empty();
  }
  if (idle) impl_->idle_cv.notify_all();
}

std::optional<std::uint16_t> TransferEngine::allocate_control_port() {
  return impl_->ports.allocate();
}

void TransferEngine::release_control_port(std::uint16_t port) { impl_->ports.release(port); }

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
  for (auto& [id, session] : impl_->live) {
    session->cancel.store(true, std::memory_order_relaxed);
  }
}

void TransferEngine::wait_idle() {
  std::unique_lock lock(impl_->mu);
  impl_->idle_cv.wait(lock, [&] { return impl_->live.empty(); });
}

// ---------------------------------------------------------------------------
// Blocking compatibility wrappers: exactly one session on a one-worker
// engine, waited to completion. Semantics (and results) match the
// pre-engine free functions.
// ---------------------------------------------------------------------------

SenderResult send_object(const SenderOptions& options, std::span<const std::uint8_t> object) {
  TransferEngine engine(EngineOptions{.workers = 1});
  auto handle = engine.submit_send(options, object);
  handle.wait();
  return handle.sender_result();
}

ReceiverResult receive_object(const ReceiverOptions& options, std::span<std::uint8_t> buffer) {
  TransferEngine engine(EngineOptions{.workers = 1});
  auto handle = engine.submit_receive(options, buffer);
  handle.wait();
  return handle.receiver_result();
}

}  // namespace fobs::posix

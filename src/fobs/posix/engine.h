// Concurrent multi-session FOBS transfer engine.
//
// A TransferEngine owns a worker pool, a registry of live sessions,
// an allocator of per-session control ports, and (optionally) a TCP
// acceptor for service front-ends. Each submitted transfer flow becomes
// a *session*: it runs the blocking POSIX driver loop on a pool worker
// with its own batched DatagramChannel for the data plane (tuned via
// EndpointOptions::io — sendmmsg/recvmmsg batch sizes, socket buffers,
// forced batched/fallback mode), its own control connection, its own
// EventTracer (when requested), and the fault-injection and checkpoint
// machinery. The caller holds a TransferHandle and can wait(), poll
// status(), or cancel() the session at any time.
//
// A striped transfer (fobs/stripe/striped_transfer.h) is N >= 1 such
// sessions on consecutive ports, launched and aggregated by
// run_striped_sender / run_striped_receiver / submit_striped_send; the
// control-port block allocator gives a server the N consecutive
// control ports it grants.
//
// The engine is what lets one process serve many transfers at once —
// fobsd's serve loop, the file server (fobs/posix/fileserver.h), and
// any embedding that out-grows the blocking free functions.
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <span>
#include <string>

#include "fobs/posix/posix_transfer.h"

namespace fobs::posix {

class TransferEngine;

// Striped-transfer types (fobs/stripe/striped_transfer.h). Forward
// declared so plain engine users don't pull the striping layer in.
struct StripedSenderOptions;
struct StripedReceiverOptions;
struct StripedResult;
struct StripedSessionParams;

namespace detail {
struct Session;
}

/// A caller's reference to one engine session. Cheap to copy (shared
/// ownership of the session record); safe to use after the engine has
/// finished the session, and — for status/results — after the engine
/// itself is gone.
class TransferHandle {
 public:
  TransferHandle() = default;

  [[nodiscard]] bool valid() const { return session_ != nullptr; }
  /// Engine-unique session id (1-based, in submission order).
  [[nodiscard]] std::uint64_t id() const;
  /// Current lifecycle state; terminal states never change again.
  [[nodiscard]] TransferStatus status() const;
  /// True once the session reached a terminal status.
  [[nodiscard]] bool done() const { return is_terminal(status()); }

  /// Blocks until the session is terminal; returns the final status.
  TransferStatus wait() const;
  /// Blocks up to `timeout`; true when the session finished in time.
  bool wait_for(std::chrono::milliseconds timeout) const;

  /// Requests cancellation. The session's driver loop notices within
  /// one poll interval and exits with TransferStatus::kCancelled. A
  /// session that already finished is unaffected. Never blocks.
  void cancel() const;

  /// Final results — meaningful once done(); sender_result() for
  /// sessions submitted via submit_send, receiver_result() for
  /// submit_receive. The reference stays valid while any handle to the
  /// session exists.
  [[nodiscard]] const SenderResult& sender_result() const;
  [[nodiscard]] const ReceiverResult& receiver_result() const;
  [[nodiscard]] bool is_sender() const;

  /// The session's tracer: the caller-supplied one if the options had
  /// one, else the engine-owned per-session tracer when the engine was
  /// created with `session_tracers`, else nullptr.
  [[nodiscard]] fobs::telemetry::EventTracer* tracer() const;

 private:
  friend class TransferEngine;
  explicit TransferHandle(std::shared_ptr<detail::Session> session)
      : session_(std::move(session)) {}

  std::shared_ptr<detail::Session> session_;
};

struct EngineOptions {
  /// Worker threads = max concurrently running sessions. Further
  /// submissions queue until a worker frees up. 0 = hardware
  /// concurrency.
  std::size_t workers = 4;
  /// Per-session control-port allocation range [base, base + count).
  /// Zero count disables the allocator.
  std::uint16_t control_port_base = 0;
  std::uint16_t control_port_count = 0;
  /// When true, every session whose options carry no tracer gets an
  /// engine-owned EventTracer, reachable via TransferHandle::tracer().
  bool session_tracers = false;
};

/// Per-submission extras beyond the transfer options.
struct SessionParams {
  /// Kept alive until the session ends — typically the mmap'd
  /// TransferObject backing the spans handed to submit_*.
  std::shared_ptr<void> keepalive;
  /// A control port previously taken from allocate_control_port();
  /// returned to the allocator automatically when the session ends.
  std::uint16_t owned_control_port = 0;
  /// Runs on the session's worker right after the session turns
  /// terminal (results are final, port already released). Keep it
  /// short; it blocks that worker.
  std::function<void(const TransferHandle&)> on_exit;
};

class TransferEngine {
 public:
  explicit TransferEngine(EngineOptions options = {});
  /// Cancels every live session, waits for all of them to finish, and
  /// stops the acceptor.
  ~TransferEngine();

  TransferEngine(const TransferEngine&) = delete;
  TransferEngine& operator=(const TransferEngine&) = delete;

  /// Schedules one send/receive session. The object/buffer span (and
  /// anything else the options reference, e.g. a tracer) must stay
  /// valid until the session is terminal — use SessionParams::keepalive
  /// for engine-managed lifetime. Invalid options are not rejected
  /// here; the session turns kBadOptions immediately on its worker.
  TransferHandle submit_send(const SenderOptions& options,
                             std::span<const std::uint8_t> object, SessionParams params = {});
  TransferHandle submit_receive(const ReceiverOptions& options,
                                std::span<std::uint8_t> buffer, SessionParams params = {});

  /// Takes a free port from [control_port_base, base + count); nullopt
  /// when the range is exhausted or the allocator is disabled. Pass it
  /// back via release_control_port — or hand it to a session as
  /// SessionParams::owned_control_port for automatic release.
  std::optional<std::uint16_t> allocate_control_port();
  void release_control_port(std::uint16_t port);
  [[nodiscard]] std::size_t free_control_ports() const;
  /// Configured (post-clamp) allocator range size; 0 = disabled.
  [[nodiscard]] std::size_t control_port_capacity() const;

  /// Leases `count` *contiguous* ports (returns the first) for striped
  /// transfers, which address per-stripe ports as first-plus-index.
  /// nullopt when no contiguous run is free. Each port may be released
  /// individually (e.g. as a session's owned_control_port) or all at
  /// once via release_control_port_block.
  std::optional<std::uint16_t> allocate_control_port_block(std::size_t count);
  void release_control_port_block(std::uint16_t first, std::size_t count);

  /// Striped transfers (see fobs/stripe/striped_transfer.h): run one
  /// session per stripe on this engine's pool and aggregate. Blocking —
  /// do not call from a pool worker of this engine (the stripes need
  /// those workers); service front-ends use submit_striped_send, which
  /// completes via StripedSessionParams callbacks.
  StripedResult run_striped_sender(const StripedSenderOptions& options,
                                   std::span<const std::uint8_t> object);
  StripedResult run_striped_receiver(const StripedReceiverOptions& options,
                                     std::span<std::uint8_t> buffer);
  /// Launches the per-stripe sender sessions without waiting for them.
  /// False when nothing was launched (`error` says why: a stripe count
  /// the object cannot carry, or a port block past 65535).
  bool submit_striped_send(const StripedSenderOptions& options,
                           std::span<const std::uint8_t> object, StripedSessionParams params,
                           std::string* error = nullptr);

  /// Binds a TCP listener on `port` and dispatches every accepted
  /// connection to the worker pool as `handler(fd, peer_host)`. The
  /// handler owns `fd` and must close it. One acceptor per engine;
  /// false when the bind/listen fails or one is already running.
  bool start_acceptor(std::uint16_t port,
                      std::function<void(int fd, std::string peer_host)> handler);
  /// Stops accepting and blocks until every already-dispatched handler
  /// task has returned, so callers can tear down state the handlers
  /// capture. Handlers queued behind busy workers still run first;
  /// cancel sessions beforehand if stop latency matters.
  void stop_acceptor();
  [[nodiscard]] bool acceptor_running() const;

  /// Sessions submitted and not yet terminal (running or queued).
  [[nodiscard]] std::size_t active_sessions() const;
  [[nodiscard]] std::uint64_t sessions_submitted() const;
  [[nodiscard]] std::uint64_t sessions_completed() const;  ///< terminal with kCompleted
  [[nodiscard]] std::uint64_t sessions_failed() const;     ///< terminal, not kCompleted

  /// Requests cancellation of every live session (non-blocking).
  void cancel_all();
  /// Blocks until no session is active. Submissions racing with this
  /// call may keep it waiting; quiesce callers first.
  void wait_idle();

 private:
  TransferHandle submit(std::shared_ptr<detail::Session> session, SessionParams params);
  void run_session(const std::shared_ptr<detail::Session>& session);
  void finish_session(const std::shared_ptr<detail::Session>& session);
  void acceptor_loop();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fobs::posix

// Concurrent multi-transfer FOBS engine.
//
// A TransferEngine owns a worker pool, a registry of live transfers,
// and (optionally) a TCP acceptor for service front-ends. Each
// submitted transfer moves one object over `stripes` >= 1 flows: at
// submit the engine validates the options, builds the transfer's
// StripePlan (fobs/stripe/plan.h) and resolves every flow once — its
// ports, its stripe's bytes, its parsed fault plan and its tracer —
// then runs one *flow session* per stripe on a pool worker and books
// each flow's terminal trace event and outcome counters when it ends.
// A flow session is a blocking socket pump around a sans-io flow
// session (fobs/posix/session.h, which holds the fault and checkpoint
// machinery), with its own segmented DatagramChannel, control
// connection on control_port + i and EventTracer (when requested). The
// caller holds one TransferHandle for the whole transfer and can
// wait(), poll status(), cancel() every flow at once, and read the
// aggregate result().
//
// A control port is leased by binding it: a send transfer holds one
// bound listener per flow before any flow launches (handed over in
// SessionParams, or bound by submit_send itself), and each flow closes
// its own when it ends. The kernel's port table is the only record of
// which ports are in use; no handle ever keeps a port bound.
//
// The engine is what lets one process serve many transfers at once —
// fobsd's serve loop, the file server (fobs/posix/fileserver.h), and
// the blocking send_object/receive_object (fobs/posix/posix_transfer.h).
#pragma once

#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fobs/posix/posix_transfer.h"
#include "net/socket.h"

namespace fobs::posix {

class TransferEngine;

namespace detail {
struct Transfer;
}

/// A caller's reference to one engine transfer. Cheap to copy (shared
/// ownership of the transfer record); safe to use after the engine has
/// finished the transfer, and — for status/results — after the engine
/// itself is gone.
class TransferHandle {
 public:
  TransferHandle() = default;

  [[nodiscard]] bool valid() const { return transfer_ != nullptr; }
  /// Engine-unique transfer id (1-based, in submission order).
  [[nodiscard]] std::uint64_t id() const;
  /// Current lifecycle state; terminal states never change again.
  /// kRunning once any flow runs; terminal once every flow is.
  [[nodiscard]] TransferStatus status() const;
  /// True once the transfer reached a terminal status.
  [[nodiscard]] bool done() const { return is_terminal(status()); }

  /// Blocks until the transfer is terminal; returns the final status.
  TransferStatus wait() const;
  /// Blocks up to `timeout`; true when the transfer finished in time.
  bool wait_for(std::chrono::milliseconds timeout) const;

  /// Requests cancellation of every flow. Each flow's driver loop
  /// notices within one poll interval and exits with
  /// TransferStatus::kCancelled; flows that already finished are
  /// unaffected. Never blocks.
  void cancel() const;

  /// The aggregate and per-flow results — meaningful once done(). The
  /// reference stays valid while any handle to the transfer exists.
  [[nodiscard]] const TransferResult& result() const;

  /// Flow `flow`'s tracer: the caller-supplied one if the options had
  /// one (shared by every flow), else the engine-owned per-flow tracer
  /// when the engine was created with `session_tracers`, else nullptr.
  [[nodiscard]] fobs::telemetry::EventTracer* tracer(int flow = 0) const;

 private:
  friend class TransferEngine;
  explicit TransferHandle(std::shared_ptr<detail::Transfer> transfer)
      : transfer_(std::move(transfer)) {}

  std::shared_ptr<detail::Transfer> transfer_;
};

struct EngineOptions {
  /// Worker threads = max concurrently running flow sessions. Further
  /// flows queue until a worker frees up. 0 = hardware concurrency.
  std::size_t workers = 4;
  /// When true, every flow whose options carry no tracer gets an
  /// engine-owned EventTracer, reachable via TransferHandle::tracer().
  bool session_tracers = false;
};

/// Per-submission extras beyond the transfer options.
struct SessionParams {
  /// Kept alive until the transfer ends — typically the mmap'd
  /// TransferObject backing the spans handed to submit_*.
  std::shared_ptr<void> keepalive;
  /// Send only: already-bound control listeners, listener i on
  /// control_port + i (e.g. a file server's catalog grant). Each flow
  /// takes its own and closes it when it ends. Empty = submit_send binds
  /// the block itself.
  std::vector<fobs::net::Fd> control_listeners;
  /// Runs once the transfer is terminal (results final, control ports
  /// already closed): on the worker of the last flow to end, or inside
  /// submit_* when the options were rejected. Keep it short; it blocks
  /// that thread.
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

  /// Schedules one send/receive transfer of `options.stripes` flows.
  /// The object/buffer span (and anything else the options reference,
  /// e.g. a tracer) must stay valid until the transfer is terminal —
  /// use SessionParams::keepalive for engine-managed lifetime. Invalid
  /// options (zero ports, a stripe count the object cannot carry, a port
  /// block past 65535, a malformed fault plan from any source, a handed
  /// listener count other than the flow count) launch no flow and bind
  /// no port: the returned handle is already terminal with kBadOptions.
  /// A send whose control port cannot be bound launches none either and
  /// ends kSocketError naming the port. A receive's `write_behind`
  /// (nullable, outliving the transfer) is told which whole pages of
  /// `buffer` each flow will not write again.
  TransferHandle submit_send(const SenderOptions& options,
                             std::span<const std::uint8_t> object, SessionParams params = {});
  TransferHandle submit_receive(const ReceiverOptions& options,
                                std::span<std::uint8_t> buffer, SessionParams params = {},
                                fobs::core::WriteBehindSink* write_behind = nullptr);

  /// Binds a TCP listener on `port` and dispatches every accepted
  /// connection to the worker pool as `handler(fd, peer_host)`. The
  /// handler owns the non-blocking `fd`, which closes when it is dropped.
  /// One acceptor per engine; false when the bind/listen fails or one is
  /// already running.
  bool start_acceptor(std::uint16_t port,
                      std::function<void(fobs::net::Fd fd, std::string peer_host)> handler);
  /// Stops accepting and blocks until every already-dispatched handler
  /// task has returned, so callers can tear down state the handlers
  /// capture. Handlers queued behind busy workers still run first;
  /// cancel sessions beforehand if stop latency matters.
  void stop_acceptor();
  [[nodiscard]] bool acceptor_running() const;

  /// Transfers submitted and not yet terminal (running or queued).
  [[nodiscard]] std::size_t active_sessions() const;
  /// Flow sessions launched: one per flow of every accepted transfer
  /// (mirrors the fobs.engine.sessions_submitted counter).
  [[nodiscard]] std::uint64_t sessions_submitted() const;
  /// Transfers that turned terminal with kCompleted / with any other
  /// status (rejected ones included).
  [[nodiscard]] std::uint64_t sessions_completed() const;
  [[nodiscard]] std::uint64_t sessions_failed() const;

  /// Requests cancellation of every live transfer (non-blocking).
  void cancel_all();
  /// Blocks until no transfer is active. Submissions racing with this
  /// call may keep it waiting; quiesce callers first.
  void wait_idle();

 private:
  TransferHandle submit(std::shared_ptr<detail::Transfer> transfer, SessionParams params);
  void run_flow(const std::shared_ptr<detail::Transfer>& transfer, int flow);
  void finish(const std::shared_ptr<detail::Transfer>& transfer);
  void acceptor_loop();

  struct Impl;
  std::unique_ptr<Impl> impl_;
};

}  // namespace fobs::posix

// Concurrent multi-transfer FOBS engine.
//
// A TransferEngine owns a worker pool, a registry of live transfers,
// an allocator of control ports, and (optionally) a TCP acceptor for
// service front-ends. Each submitted transfer moves one object over
// `stripes` >= 1 flows: the engine validates the options, builds the
// transfer's StripePlan (fobs/stripe/plan.h) and runs one *flow
// session* per stripe on a pool worker. A flow session is the blocking
// POSIX driver loop with its own sendmmsg/recvmmsg DatagramChannel for
// the data plane, its own control connection on
// control_port + i, its own EventTracer (when requested), and the
// fault-injection and checkpoint machinery. The caller holds one
// TransferHandle for the whole transfer and can wait(), poll status(),
// cancel() every flow at once, and read the aggregate result().
//
// The engine is what lets one process serve many transfers at once —
// fobsd's serve loop, the file server (fobs/posix/fileserver.h), and
// the blocking send_object/receive_object (fobs/posix/posix_transfer.h).
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
  /// Control-port allocation range [base, base + count). Zero count
  /// disables the allocator.
  std::uint16_t control_port_base = 0;
  std::uint16_t control_port_count = 0;
  /// When true, every flow whose options carry no tracer gets an
  /// engine-owned EventTracer, reachable via TransferHandle::tracer().
  bool session_tracers = false;
};

/// Per-submission extras beyond the transfer options.
struct SessionParams {
  /// Kept alive until the transfer ends — typically the mmap'd
  /// TransferObject backing the spans handed to submit_*.
  std::shared_ptr<void> keepalive;
  /// The control ports [control_port, control_port + stripes) were
  /// leased from this engine (allocate_control_port_block): each flow
  /// returns its own port when it ends, a rejected transfer the block.
  bool owns_control_ports = false;
  /// Runs once the transfer is terminal (results final, ports already
  /// released): on the worker of the last flow to end, or inside
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
  /// block past 65535, bad I/O tuning) launch no flow: the returned
  /// handle is already terminal with kBadOptions.
  TransferHandle submit_send(const SenderOptions& options,
                             std::span<const std::uint8_t> object, SessionParams params = {});
  TransferHandle submit_receive(const ReceiverOptions& options,
                                std::span<std::uint8_t> buffer, SessionParams params = {});

  /// Leases `count` *contiguous* ports from [control_port_base,
  /// base + count) and returns the first — transfers address per-flow
  /// control ports as first-plus-index. nullopt when no contiguous run
  /// is free or the allocator is disabled. Return the block with
  /// release_control_port_block, or hand it to a transfer with
  /// SessionParams::owns_control_ports.
  std::optional<std::uint16_t> allocate_control_port_block(std::size_t count);
  void release_control_port_block(std::uint16_t first, std::size_t count);
  [[nodiscard]] std::size_t free_control_ports() const;
  /// Configured (post-clamp) allocator range size; 0 = disabled.
  [[nodiscard]] std::size_t control_port_capacity() const;

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

// Shared option and status types for the real-socket FOBS surface.
//
// EndpointOptions carries the knobs every endpoint has — packet size,
// the progress-based give-up budget, fault injection, tracing — so
// SenderOptions/ReceiverOptions no longer duplicate them field by
// field. TransferStatus is the machine-readable outcome of a transfer:
// callers branch on the enum and keep `error` purely as the
// human-readable detail, instead of string-matching against it.
#pragma once

#include <cstdint>
#include <string>

#include "telemetry/trace.h"

namespace fobs::posix {

/// Machine-readable outcome (and lifecycle state) of one transfer
/// session. Values at or past kCompleted are terminal.
enum class TransferStatus : std::uint8_t {
  kPending = 0,   ///< submitted, not yet picked up by a worker
  kRunning,       ///< transfer loop in progress
  kCompleted,     ///< object delivered end to end
  kTimeout,       ///< gave up with zero protocol progress (peer never appeared)
  kStalled,       ///< made progress, then none for the whole stall budget
  kPeerLost,      ///< the peer's control endpoint could not be (re)reached
  kSocketError,   ///< socket setup or I/O failed (detail in `error`)
  kBadOptions,    ///< options rejected before any socket was touched
  kCancelled,     ///< cancelled via TransferHandle::cancel()
  kCrashed,       ///< fault-injection crash schedule fired
};

[[nodiscard]] const char* to_string(TransferStatus status);

/// True for every status a finished session can report (everything
/// except kPending/kRunning).
[[nodiscard]] bool is_terminal(TransferStatus status);

/// Options common to both transfer endpoints. Embedded as
/// `SenderOptions::endpoint` / `ReceiverOptions::endpoint`.
struct EndpointOptions {
  std::int64_t packet_bytes = 1024;
  /// Progress-based give-up: the transfer is abandoned only after
  /// `stall_intervals` consecutive intervals of `timeout_ms /
  /// stall_intervals` each with zero protocol progress. A transfer that
  /// never progresses still dies after ~`timeout_ms`; one that keeps
  /// moving is never killed by the clock alone.
  int timeout_ms = 60'000;
  int stall_intervals = 8;
  /// Fault-injection plan (grammar in docs/ROBUSTNESS.md). Empty means
  /// "use the FOBS_FAULT_PLAN environment variable, if set".
  std::string fault_plan;
  /// Optional event tracer (must outlive the transfer). The driver
  /// installs a steady clock (ns since transfer start) and records
  /// transfer_start, batch, ACK, completion, and timeout/error events.
  fobs::telemetry::EventTracer* tracer = nullptr;
};

}  // namespace fobs::posix

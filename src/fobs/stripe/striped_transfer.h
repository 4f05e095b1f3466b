// Multi-flow FOBS: one object carried over N >= 1 parallel UDP flows
// (the PSockets idea applied to the FOBS wire protocol). Every real-
// socket fetch takes this path; a single flow is the N = 1 case.
//
// A striped transfer is N ordinary FOBS sessions — each with its own
// UDP socket, DatagramChannel, ACK stream, adaptive pacing state, TCP
// control connection and stall budget — running concurrently on a
// TransferEngine's worker pool, all addressing disjoint slices of ONE
// shared object buffer through a contiguous StripePlan
// (fobs/stripe/plan.h). There is no merge step: every stripe's receiver
// writes straight into the whole-object mapping at plan-computed
// offsets.
//
// There is no stripe handshake on the wire. The two sides agree on
// the object size, the packet size and the stripe count out of band
// (fobsd: the catalog reply, see fobs/posix/fileserver.h), build the
// same plan, and stripe i runs on (data_port + i, control_port + i)
// with the unchanged FOBS protocol in stripe-local sequence space:
// greedy UDP + selective-ACK bitmap + TCP completion token + resume
// frames.
//
// Checkpointing: every stripe of a transfer shares the one object-level
// checkpoint at ReceiverOptions::checkpoint_path. Stripe s owns the
// contiguous range of the object's bitmap that the plan gives it,
// restores only that range and folds only that range back in
// (fobs/posix/checkpoint.h). The file is removed once the whole bitmap
// is set, so a partly failed transfer leaves exactly the delivered
// stripes behind and a retry resumes at any stripe count.
#pragma once

#include <functional>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "fobs/posix/engine.h"
#include "fobs/stripe/plan.h"

namespace fobs::posix {

struct StripedSenderOptions {
  /// Stripe 0's session. Stripe i sends to `flow.data_port + i` and
  /// accepts its control connection on `flow.control_port + i`;
  /// `flow.stripe` is filled in per stripe. endpoint.fault_plan applies
  /// to every stripe unless stripe_fault_plans overrides it.
  SenderOptions flow;
  /// Stripes to run, in [1, StripePlan::max_stripes(object)]; the
  /// receiver must run the same count.
  int stripes = 1;
  /// When non-empty, per-stripe fault-plan overrides (index = stripe;
  /// missing/empty entries keep flow.endpoint.fault_plan). Lets tests
  /// kill exactly one stripe's flow.
  std::vector<std::string> stripe_fault_plans;
};

struct StripedReceiverOptions {
  /// Stripe 0's session. Stripe i binds UDP `flow.data_port + i` and
  /// connects to `flow.control_port + i`. A non-empty
  /// `flow.checkpoint_path` is the object-level checkpoint every stripe
  /// shares; pair it with a file-backed buffer exactly as for a single
  /// flow.
  ReceiverOptions flow;
  int stripes = 1;
  std::vector<std::string> stripe_fault_plans;
};

/// Aggregate of one striped transfer plus every per-stripe result.
struct StripedResult {
  /// kCompleted iff every stripe completed; otherwise the most severe
  /// per-stripe failure (socket/options errors over crash over
  /// cancel over peer-lost over timeout over stall).
  TransferStatus status = TransferStatus::kPending;
  std::string error;  ///< human-readable detail; empty on success
  bool is_sender = false;
  int stripes = 0;  ///< stripes run
  int stripes_completed = 0;
  /// Failed, but the object-level checkpoint holds what was delivered,
  /// so a retry at any stripe count resumes instead of restarting.
  bool resumable = false;
  double elapsed_seconds = 0.0;  ///< slowest stripe (wall clock)
  /// Whole-object goodput over the slowest stripe's elapsed time.
  double goodput_mbps = 0.0;
  std::int64_t packets_restored = 0;  ///< summed over stripes (receiver)
  /// Per-stripe results, indexed by stripe; senders fill
  /// stripe_senders, receivers stripe_receivers.
  std::vector<SenderResult> stripe_senders;
  std::vector<ReceiverResult> stripe_receivers;
  fobs::net::IoStats io;  ///< summed over stripes

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
  /// Some stripes delivered, some failed.
  [[nodiscard]] bool degraded() const { return !completed() && stripes_completed > 0; }
};

/// Extras for TransferEngine::submit_striped_send.
struct StripedSessionParams {
  /// Kept alive until the last stripe session ends (typically the
  /// mmap'd TransferObject backing the object span).
  std::shared_ptr<void> keepalive;
  /// The control ports [flow.control_port, + stripes) were leased from
  /// this engine's allocator (allocate_control_port_block): each stripe
  /// session returns its own port when it ends, and a failed launch
  /// returns the whole block.
  bool owns_control_ports = false;
  /// Runs on each stripe's worker when that stripe's session ends, before
  /// the aggregate is known (e.g. to write the session's trace).
  std::function<void(const TransferHandle&)> on_stripe_exit;
  /// Runs on the final stripe's worker once the aggregate is known.
  std::function<void(const StripedResult&)> on_complete;
};

/// `<base>.s<index>`: a per-stripe checkpoint name that no transfer
/// writes (stripes share the object-level file at `<base>`); cleanup
/// code may remove stray files at these paths.
[[nodiscard]] std::string stripe_checkpoint_path(const std::string& base, int index);

}  // namespace fobs::posix

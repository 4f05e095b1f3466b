// Multi-flow FOBS: one object carried over N >= 1 parallel UDP flows
// (the PSockets idea applied to the FOBS wire protocol).
//
// Striping is a setting of every transfer, not a separate API:
// SenderOptions/ReceiverOptions::stripes (fobs/posix/posix_transfer.h)
// says how many flows carry the object, and one flow is the N = 1
// case. The engine (fobs/posix/engine.h) runs N ordinary FOBS flow
// sessions — each with its own UDP socket, DatagramChannel, ACK
// stream, TCP control connection and stall budget — all addressing
// disjoint slices of ONE shared object buffer through a contiguous
// StripePlan (fobs/stripe/plan.h), and folds their results into one
// TransferResult. There is no merge step: every
// receiving flow writes straight into the whole-object buffer at
// plan-computed offsets.
//
// There is no stripe handshake on the wire. The two sides agree on
// the object size, the packet size and the flow count out of band
// (fobsd: the catalog reply, see fobs/posix/fileserver.h), build the
// same plan, and flow i runs on (data_port + i, control_port + i) with
// the unchanged FOBS protocol in stripe-local sequence space: greedy
// UDP + selective-ACK bitmap + TCP receiver-state frames.
//
// Checkpointing: a receive transfer owns one object-level checkpoint
// (TransferCheckpoint, fobs/posix/checkpoint.h). Flow s owns the
// contiguous range of the object's bitmap that the plan gives it,
// restores only that range and folds only that range back in. The
// engine removes the file once the transfer completes, so a partly
// failed transfer leaves exactly the delivered stripes behind and a
// retry resumes at any flow count.
#pragma once

#include <string>

#include "fobs/posix/engine.h"
#include "fobs/stripe/plan.h"

namespace fobs::posix {

/// `<base>.s<index>`: a per-stripe checkpoint name that no transfer
/// writes (flows share the object-level file at `<base>`); cleanup
/// code may remove stray files at these paths.
[[nodiscard]] inline std::string stripe_checkpoint_path(const std::string& base, int index) {
  return base + ".s" + std::to_string(index);
}

}  // namespace fobs::posix

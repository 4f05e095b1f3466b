// FOBS acknowledgement messages.
//
// An ACK carries (a) the cumulative frontier — every packet below it has
// been received — and (b) one bitmap fragment covering a window of
// packets at/above the frontier. The receiver rotates the fragment start
// across the unfinished region on successive ACKs, so the sender's view
// of the whole object converges even when a single ACK cannot hold the
// entire bitmap. Together with the per-object bitmap this realizes the
// paper's "selective acknowledgement window [that] is also in a sense
// infinite".
#pragma once

#include <cstdint>
#include <vector>

#include "common/bitmap.h"
#include "fobs/types.h"

namespace fobs::core {

struct AckMessage {
  std::uint64_t ack_no = 0;  ///< monotonically increasing per receiver
  /// Receiver-incarnation id (0 = unversioned). A restarted receiver
  /// picks a fresh epoch and announces it on the control channel, so
  /// the sender can discard ACKs still in flight from the previous
  /// incarnation instead of applying them to its reset view.
  std::uint32_t epoch = 0;
  /// Total packets received so far (sender uses deltas for rate feedback).
  std::int64_t total_received = 0;
  /// All packets with seq < frontier have been received.
  PacketSeq frontier = 0;
  /// Bitmap fragment covering [fragment_start, fragment_start + fragment_bits).
  PacketSeq fragment_start = 0;
  std::int32_t fragment_bits = 0;
  std::vector<std::uint8_t> fragment;  ///< packed, bit i = packet fragment_start+i
  /// Set when the receiver has every packet (also signalled via TCP).
  bool complete = false;
  /// The receiver socket's cumulative queue drops, mod 2^16 (see
  /// RateCap). 0 from a receiver with no socket queue: the simulator's.
  std::uint16_t queue_drops = 0;

  /// Wire size of this message in bytes.
  [[nodiscard]] std::int64_t wire_bytes() const {
    return kAckHeaderBytes + static_cast<std::int64_t>(fragment.size());
  }
};

/// Builds ACK messages from the receiver's bitmap, rotating the bitmap
/// fragment across the not-yet-complete region.
class AckBuilder {
 public:
  /// @param max_payload_bytes upper bound on the ACK packet payload; the
  ///        fragment is sized to fit (kAckHeaderBytes included).
  AckBuilder(std::int64_t packet_count, std::int64_t max_payload_bytes);

  /// Creates the next ACK from the receiver's current state.
  AckMessage build(const fobs::util::Bitmap& received, PacketSeq frontier,
                   std::int64_t total_received);

  [[nodiscard]] std::int64_t fragment_capacity_bits() const { return fragment_bits_; }

 private:
  std::int64_t packet_count_;
  std::int64_t fragment_bits_;
  std::uint64_t next_ack_no_ = 1;
  PacketSeq rotate_cursor_ = 0;
};

/// Sender-side application of an ACK to its view of the receiver state.
/// Returns the number of packets newly learned to be received.
std::int64_t apply_ack(const AckMessage& ack, fobs::util::Bitmap& view);

}  // namespace fobs::core

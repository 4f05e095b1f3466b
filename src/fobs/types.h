// Core types for FOBS object transfers.
//
// FOBS is "object-based": the transfer unit is a whole, pre-allocated
// buffer. With a fixed packet size every packet in the object has a
// stable sequence number, which is what lets the receiver keep a bitmap
// over the entire transfer (an effectively infinite selective-ack
// window, per the paper's Section 3).
#pragma once

#include <cassert>
#include <cstdint>

namespace fobs::core {

/// Index of a data packet within the object (0-based).
using PacketSeq = std::int64_t;

/// Geometry of one object transfer: object size and fixed packet size.
struct TransferSpec {
  std::int64_t object_bytes = 0;
  std::int64_t packet_bytes = 1024;  ///< data bytes per packet (paper default)

  [[nodiscard]] std::int64_t packet_count() const {
    assert(packet_bytes > 0);
    return (object_bytes + packet_bytes - 1) / packet_bytes;
  }

  /// Data bytes carried by packet `seq` (the final packet may be short).
  [[nodiscard]] std::int64_t payload_bytes(PacketSeq seq) const {
    assert(seq >= 0 && seq < packet_count());
    if (seq + 1 < packet_count()) return packet_bytes;
    const std::int64_t rem = object_bytes - seq * packet_bytes;
    return rem;
  }

  /// Byte offset of packet `seq` within the object.
  [[nodiscard]] std::int64_t offset_of(PacketSeq seq) const { return seq * packet_bytes; }

  /// The paper's wasted network resources after `packets_sent` sends:
  /// (sent - needed) / needed.
  [[nodiscard]] double waste(std::int64_t packets_sent) const {
    const auto needed = static_cast<double>(packet_count());
    if (needed == 0) return 0.0;
    return (static_cast<double>(packets_sent) - needed) / needed;
  }
};

/// FOBS per-data-packet header bytes on the wire (sequence number,
/// object id, flags). Added on top of `TransferSpec::packet_bytes`.
inline constexpr std::int64_t kDataHeaderBytes = 16;

/// Fixed part of an acknowledgement packet (ack number, counters,
/// fragment descriptor).
inline constexpr std::int64_t kAckHeaderBytes = 32;

/// Progress-based give-up, shared by the simulated and real-socket
/// drivers: a transfer's timeout is split into this many check
/// intervals, and it is abandoned only after this many consecutive
/// intervals with zero progress. One that never progresses still dies
/// after ~timeout; one that keeps moving is never killed by the clock.
inline constexpr int kStallIntervals = 8;

}  // namespace fobs::core

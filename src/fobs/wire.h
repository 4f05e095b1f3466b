// Simulated wire payloads for FOBS traffic.
#pragma once

#include <cstdint>
#include <memory>

#include "fobs/ack.h"
#include "fobs/types.h"

namespace fobs::core {

/// One FOBS data packet. `data` points into the sender's object buffer
/// (which outlives the transfer); a null pointer means a size-only run
/// with no payload verification. `corrupted` models a packet whose
/// CRC-32C check fails at the receiver (the fault injector sets it; the
/// real-socket codec carries an actual checksum) — the receiver must
/// reject the packet instead of writing it into the object. `transfer`
/// names the simulated transfer that sent it: a datagram still in flight
/// when its transfer ends reaches the next transfer on the same ports,
/// which must ignore it.
struct DataPacketPayload {
  PacketSeq seq = 0;
  std::int32_t len = 0;
  const std::uint8_t* data = nullptr;
  bool corrupted = false;
  std::uint64_t transfer = 0;
};

/// One acknowledgement. Shared pointer keeps per-hop packet copies cheap.
/// `corrupted` models a checksum-failing ACK the sender must ignore;
/// `transfer` is as for DataPacketPayload.
struct AckPacketPayload {
  std::shared_ptr<const AckMessage> ack;
  bool corrupted = false;
  std::uint64_t transfer = 0;
};

/// "All data received", sent once over the TCP control connection.
/// `corrupted` models an unparseable completion frame.
struct CompletionSignal {
  std::int64_t total_packets = 0;
  bool corrupted = false;
};

/// Wire size of a completion signal message on the TCP stream.
inline constexpr std::int64_t kCompletionSignalBytes = 16;

}  // namespace fobs::core

// Binary wire codec for real-socket FOBS (network byte order).
//
// Data packet:  20-byte header (magic, type, flags, seq, CRC-32C) +
//               payload. The CRC seals the payload and then header
//               bytes [0, 16), so a damaged seq fails it like a damaged
//               payload byte, and a receiver that checks it has the
//               payload's own CRC on the way (the object's CRC is
//               folded from those).
// ACK packet:   fixed header (including the receiver's incarnation
//               epoch) + packed bitmap fragment.
// Control stream (TCP): one frame type, the receiver-state frame: the
//               receiver's epoch, the flow's packet count, how many
//               packets it holds and, when it holds some but not all,
//               its full bitmap, CRC-sealed. The first frame on every
//               connection announces the epoch (and, from a restored
//               receiver, the bitmap so the sender skips what it
//               already stored); a frame holding every packet is the
//               completion signal. The receiver encodes it with
//               encode_state() and the sender takes it off its buffered
//               stream with next_control_frame(); no other module knows
//               the control-stream format.
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "fobs/ack.h"
#include "fobs/types.h"

namespace fobs::posix {

inline constexpr std::uint32_t kMagic = 0x464F4253;  // "FOBS"
inline constexpr std::uint8_t kTypeData = 1;
inline constexpr std::uint8_t kTypeAck = 2;

inline constexpr std::size_t kDataHeaderSize = 20;

/// Largest UDP datagram payload; bounds every length field an ACK can
/// legitimately declare (a hostile value past this is rejected before
/// any allocation happens).
inline constexpr std::int64_t kMaxDatagramBytes = 64 * 1024;
/// Largest data payload: the largest IPv4 UDP payload less the header.
/// A packet size sizes the receive ring, so every entry point bounds it.
inline constexpr std::int64_t kMaxPacketBytes = 65'507 - std::int64_t{kDataHeaderSize};
inline constexpr std::int64_t kMaxAckFragmentBits = kMaxDatagramBytes * 8;

/// Leading data-header bytes the packet CRC covers: magic, type, flags
/// and seq, everything before the CRC field itself.
inline constexpr std::size_t kDataSealedHeaderBytes = 16;

struct DataHeader {
  fobs::core::PacketSeq seq = 0;
  /// CRC-32C over the payload that follows the header and then header
  /// bytes [0, kDataSealedHeaderBytes) (see packet_crc()).
  std::uint32_t crc = 0;
};

/// Writes the data-packet header into `out` (size >= kDataHeaderSize).
void encode_data_header(const DataHeader& header, std::uint8_t* out);
/// Parses a data-packet header; nullopt when magic/type mismatch. The
/// caller checks `crc` against packet_crc() over the bytes it received.
std::optional<DataHeader> decode_data_header(const std::uint8_t* data, std::size_t len);

/// The packet seal: CRC-32C over the payload, then the first
/// kDataSealedHeaderBytes of the encoded `header`, i.e.
/// crc32(header, seed = crc32(payload)); `payload_crc` is
/// util::crc32(payload, len).
[[nodiscard]] std::uint32_t packet_crc(const std::uint8_t* header, std::uint32_t payload_crc);
/// Stores the seal of `len` payload bytes in the CRC field of an encoded
/// `header`.
void seal_data_header(std::uint8_t* header, const std::uint8_t* payload, std::size_t len);

/// Serializes an AckMessage into a datagram payload.
std::vector<std::uint8_t> encode_ack(const fobs::core::AckMessage& ack);
/// Parses an ACK datagram; nullopt when malformed or when declared
/// sizes exceed what a datagram could physically carry.
std::optional<fobs::core::AckMessage> decode_ack(const std::uint8_t* data, std::size_t len);

/// What one receiver incarnation holds, as a receiver-state frame
/// carries it.
struct ReceiverState {
  std::uint32_t epoch = 0;  ///< the incarnation's nonzero epoch
  std::int64_t packet_count = 0;
  std::int64_t received_count = 0;
  /// Packed (Bitmap::extract_range format), (packet_count + 7) / 8
  /// bytes; present iff 0 < received_count < packet_count.
  std::vector<std::uint8_t> bitmap;
  friend bool operator==(const ReceiverState&, const ReceiverState&) = default;
};

/// Serializes a receiver-state frame (fixed part + bitmap + CRC-32C over
/// everything after the token).
std::vector<std::uint8_t> encode_state(const ReceiverState& state);

/// What sits at the head of a buffered control stream.
enum class ControlFrameKind : std::uint8_t {
  kNeedMore,  ///< empty, or a frame that has not fully arrived yet
  kState,     ///< a receiver-state frame: `state` holds it, or nullopt when
              ///< it fails its CRC, is for another packet count or is
              ///< inconsistent (ignore it as a whole)
  kDesync,    ///< unknown token or a bitmap length no frame for this flow
              ///< can have: the stream cannot be re-synchronised
};

struct ControlFrame {
  ControlFrameKind kind = ControlFrameKind::kNeedMore;
  std::size_t consumed = 0;  ///< bytes to drop from the head of the buffer
  std::optional<ReceiverState> state;
};

/// Sans-io control-stream parser: classifies the next frame of `data`
/// for a flow of `packet_count` packets. A bitmap length other than 0
/// or that packet count's bitmap size is a desync, so a frame cannot
/// make the caller buffer more than one bitmap's worth.
[[nodiscard]] ControlFrame next_control_frame(const std::uint8_t* data, std::size_t len,
                                              std::int64_t packet_count);

}  // namespace fobs::posix

// Binary wire codec for real-socket FOBS (network byte order).
//
// Data packet:  20-byte header (magic, type, flags, seq, payload CRC32)
//               + payload.
// ACK packet:   fixed header (including the receiver's incarnation
//               epoch) + packed bitmap fragment.
// Control stream (TCP): a hello frame announcing the receiver's epoch,
//               an 8-byte completion token, and an optional resume
//               frame (receiver's full bitmap, CRC-sealed) sent by a
//               restarted receiver so the sender skips packets the
//               previous incarnation already stored. The receiver
//               encodes these frames and the sender takes them off its
//               buffered stream with next_control_frame(); no other
//               module knows the control-stream format.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "fobs/ack.h"
#include "fobs/types.h"

namespace fobs::posix {

inline constexpr std::uint32_t kMagic = 0x464F4253;  // "FOBS"
inline constexpr std::uint8_t kTypeData = 1;
inline constexpr std::uint8_t kTypeAck = 2;

/// Hello frame: token + u64 carrying the receiver's epoch in its low
/// 32 bits. Sent first on every control connection; the sender applies
/// only ACKs stamped with the announced epoch from then on.
inline constexpr std::size_t kHelloFrameSize = 8 + 8;
/// Completion frame: the token alone.
inline constexpr std::size_t kCompletionFrameSize = 8;

inline constexpr std::size_t kDataHeaderSize = 20;
/// Fixed part of a resume frame: token, packet_count, received_count,
/// bitmap byte length. A CRC32 trailer follows the bitmap.
inline constexpr std::size_t kResumeFixedSize = 8 + 8 + 8 + 4;
inline constexpr std::size_t kResumeTrailerSize = 4;

/// Largest UDP datagram payload; bounds every length field an ACK can
/// legitimately declare (a hostile value past this is rejected before
/// any allocation happens).
inline constexpr std::int64_t kMaxDatagramBytes = 64 * 1024;
inline constexpr std::int64_t kMaxAckFragmentBits = kMaxDatagramBytes * 8;

struct DataHeader {
  fobs::core::PacketSeq seq = 0;
  /// CRC32 (IEEE) over the payload bytes that follow the header.
  std::uint32_t payload_crc = 0;
};

/// Writes the data-packet header into `out` (size >= kDataHeaderSize).
void encode_data_header(const DataHeader& header, std::uint8_t* out);
/// Parses a data-packet header; nullopt when magic/type mismatch. The
/// caller checks `payload_crc` against the payload (see payload_crc()).
std::optional<DataHeader> decode_data_header(const std::uint8_t* data, std::size_t len);

/// CRC32 of a data packet's payload bytes.
[[nodiscard]] std::uint32_t payload_crc(const std::uint8_t* payload, std::size_t len);

/// Serializes an AckMessage into a datagram payload.
std::vector<std::uint8_t> encode_ack(const fobs::core::AckMessage& ack);
/// Parses an ACK datagram; nullopt when malformed or when declared
/// sizes exceed what a datagram could physically carry.
std::optional<fobs::core::AckMessage> decode_ack(const std::uint8_t* data, std::size_t len);

/// A resume frame decoded from the control stream.
struct ResumeFrame {
  std::int64_t packet_count = 0;
  std::int64_t received_count = 0;
  std::vector<std::uint8_t> bitmap;  ///< packed, Bitmap::extract_range format
};

/// Serializes a resume frame (token + counts + bitmap + CRC32 trailer).
std::vector<std::uint8_t> encode_resume(std::int64_t packet_count,
                                        std::int64_t received_count,
                                        const std::vector<std::uint8_t>& bitmap);
/// Total frame size implied by a packet count (for stream reassembly).
[[nodiscard]] std::size_t resume_frame_size(std::int64_t packet_count);
/// Parses a complete resume frame; nullopt on bad token/CRC/shape.
std::optional<ResumeFrame> decode_resume(const std::uint8_t* data, std::size_t len);

/// Serializes the hello frame announcing the receiver's `epoch`.
std::array<std::uint8_t, kHelloFrameSize> encode_hello(std::uint32_t epoch);
/// Serializes the completion frame.
std::array<std::uint8_t, kCompletionFrameSize> encode_completion();

/// What sits at the head of a buffered control stream.
enum class ControlFrameKind : std::uint8_t {
  kNeedMore,    ///< empty, or a frame that has not fully arrived yet
  kHello,       ///< `epoch` holds the receiver's incarnation epoch
  kResume,      ///< `resume` holds the bitmap, or nullopt when the frame
                ///< is for another packet count or fails its CRC (ignore it)
  kCompletion,  ///< every packet arrived
  kDesync,      ///< unknown token: the stream cannot be re-synchronised
};

struct ControlFrame {
  ControlFrameKind kind = ControlFrameKind::kNeedMore;
  std::size_t consumed = 0;  ///< bytes to drop from the head of the buffer
  std::uint32_t epoch = 0;
  std::optional<ResumeFrame> resume;
};

/// Sans-io control-stream parser: classifies the next frame of `data`
/// for a flow of `packet_count` packets. A resume frame is read at the
/// size that packet count implies, so a frame cannot make the caller
/// buffer more than one bitmap's worth.
[[nodiscard]] ControlFrame next_control_frame(const std::uint8_t* data, std::size_t len,
                                              std::int64_t packet_count);

}  // namespace fobs::posix

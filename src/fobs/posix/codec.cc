#include "fobs/posix/codec.h"

#include <cstring>
#include <utility>

#include "common/crc32.h"

namespace fobs::posix {

namespace {

void put_u32(std::uint8_t* p, std::uint32_t v) {
  p[0] = static_cast<std::uint8_t>(v >> 24);
  p[1] = static_cast<std::uint8_t>(v >> 16);
  p[2] = static_cast<std::uint8_t>(v >> 8);
  p[3] = static_cast<std::uint8_t>(v);
}

std::uint32_t get_u32(const std::uint8_t* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) | (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | static_cast<std::uint32_t>(p[3]);
}

void put_u64(std::uint8_t* p, std::uint64_t v) {
  put_u32(p, static_cast<std::uint32_t>(v >> 32));
  put_u32(p + 4, static_cast<std::uint32_t>(v));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  return (static_cast<std::uint64_t>(get_u32(p)) << 32) | get_u32(p + 4);
}

constexpr std::size_t kAckFixedSize = 4 + 8 + 8 + 8 + 8 + 4 + 4 + 4;  // 48 bytes

// Receiver-state frame: token, epoch, packet_count, received_count,
// bitmap length; the bitmap and a CRC-32C trailer follow.
constexpr std::uint64_t kStateToken = 0x464F425353544154ull;  // "FOBSSTAT"
constexpr std::size_t kStateFixedSize = 8 + 4 + 8 + 8 + 4;
constexpr std::size_t kStateTrailerSize = 4;

}  // namespace

void encode_data_header(const DataHeader& header, std::uint8_t* out) {
  put_u32(out, kMagic);
  out[4] = kTypeData;
  out[5] = out[6] = out[7] = 0;
  put_u64(out + 8, static_cast<std::uint64_t>(header.seq));
  put_u32(out + kDataSealedHeaderBytes, header.crc);
}

std::optional<DataHeader> decode_data_header(const std::uint8_t* data, std::size_t len) {
  if (len < kDataHeaderSize) return std::nullopt;
  if (get_u32(data) != kMagic || data[4] != kTypeData) return std::nullopt;
  DataHeader header;
  header.seq = static_cast<fobs::core::PacketSeq>(get_u64(data + 8));
  header.crc = get_u32(data + kDataSealedHeaderBytes);
  return header;
}

std::uint32_t packet_crc(const std::uint8_t* header, std::uint32_t payload_crc) {
  return fobs::util::crc32(header, kDataSealedHeaderBytes, payload_crc);
}

void seal_data_header(std::uint8_t* header, const std::uint8_t* payload, std::size_t len) {
  put_u32(header + kDataSealedHeaderBytes, packet_crc(header, fobs::util::crc32(payload, len)));
}

std::vector<std::uint8_t> encode_ack(const fobs::core::AckMessage& ack) {
  std::vector<std::uint8_t> out(kAckFixedSize + ack.fragment.size());
  put_u32(out.data(), kMagic);
  out[4] = kTypeAck;
  out[5] = ack.complete ? 1 : 0;
  out[6] = static_cast<std::uint8_t>(ack.queue_drops >> 8);
  out[7] = static_cast<std::uint8_t>(ack.queue_drops);
  put_u64(out.data() + 8, ack.ack_no);
  put_u64(out.data() + 16, static_cast<std::uint64_t>(ack.total_received));
  put_u64(out.data() + 24, static_cast<std::uint64_t>(ack.frontier));
  put_u64(out.data() + 32, static_cast<std::uint64_t>(ack.fragment_start));
  put_u32(out.data() + 40, static_cast<std::uint32_t>(ack.fragment_bits));
  put_u32(out.data() + 44, ack.epoch);
  if (!ack.fragment.empty()) {
    std::memcpy(out.data() + kAckFixedSize, ack.fragment.data(), ack.fragment.size());
  }
  return out;
}

std::optional<fobs::core::AckMessage> decode_ack(const std::uint8_t* data, std::size_t len) {
  if (len < kAckFixedSize) return std::nullopt;
  if (get_u32(data) != kMagic || data[4] != kTypeAck) return std::nullopt;
  fobs::core::AckMessage ack;
  ack.complete = data[5] != 0;
  ack.queue_drops = static_cast<std::uint16_t>((data[6] << 8) | data[7]);
  ack.ack_no = get_u64(data + 8);
  ack.total_received = static_cast<std::int64_t>(get_u64(data + 16));
  ack.frontier = static_cast<fobs::core::PacketSeq>(get_u64(data + 24));
  ack.fragment_start = static_cast<fobs::core::PacketSeq>(get_u64(data + 32));
  ack.fragment_bits = static_cast<std::int32_t>(get_u32(data + 40));
  ack.epoch = get_u32(data + 44);
  // Reject absurd fragment sizes before touching any allocation path: a
  // legitimate fragment fits in one datagram, so a hostile/corrupt
  // 2^31-ish bit count cannot force a giant allocation here.
  if (ack.fragment_bits < 0 || ack.fragment_bits > kMaxAckFragmentBits) return std::nullopt;
  const std::size_t expected = (static_cast<std::size_t>(ack.fragment_bits) + 7) / 8;
  if (len < kAckFixedSize + expected) return std::nullopt;
  ack.fragment.assign(data + kAckFixedSize, data + kAckFixedSize + expected);
  return ack;
}

std::vector<std::uint8_t> encode_state(const ReceiverState& state) {
  const std::size_t bitmap_len = state.bitmap.size();
  std::vector<std::uint8_t> out(kStateFixedSize + bitmap_len + kStateTrailerSize);
  put_u64(out.data(), kStateToken);
  put_u32(out.data() + 8, state.epoch);
  put_u64(out.data() + 12, static_cast<std::uint64_t>(state.packet_count));
  put_u64(out.data() + 20, static_cast<std::uint64_t>(state.received_count));
  put_u32(out.data() + 28, static_cast<std::uint32_t>(bitmap_len));
  if (bitmap_len > 0) {
    std::memcpy(out.data() + kStateFixedSize, state.bitmap.data(), bitmap_len);
  }
  // Seal everything after the token so a desynced stream cannot smuggle
  // a plausible-looking epoch, bitmap or completion through.
  put_u32(out.data() + kStateFixedSize + bitmap_len,
          fobs::util::crc32(out.data() + 8, kStateFixedSize - 8 + bitmap_len));
  return out;
}

ControlFrame next_control_frame(const std::uint8_t* data, std::size_t len,
                                std::int64_t packet_count) {
  ControlFrame frame;
  if (len < 8) return frame;
  if (get_u64(data) != kStateToken) {
    frame.kind = ControlFrameKind::kDesync;
    return frame;
  }
  if (len < kStateFixedSize) return frame;
  const std::size_t bitmap_len = get_u32(data + 28);
  const auto flow_bitmap_len = static_cast<std::size_t>((packet_count + 7) / 8);
  if (bitmap_len != 0 && bitmap_len != flow_bitmap_len) {
    frame.kind = ControlFrameKind::kDesync;
    return frame;
  }
  const std::size_t size = kStateFixedSize + bitmap_len + kStateTrailerSize;
  if (len < size) return frame;
  frame.kind = ControlFrameKind::kState;
  frame.consumed = size;

  ReceiverState state;
  state.epoch = get_u32(data + 8);
  state.packet_count = static_cast<std::int64_t>(get_u64(data + 12));
  state.received_count = static_cast<std::int64_t>(get_u64(data + 20));
  const bool partial = state.received_count > 0 && state.received_count < packet_count;
  const bool valid =
      fobs::util::crc32(data + 8, kStateFixedSize - 8 + bitmap_len) ==
          get_u32(data + kStateFixedSize + bitmap_len) &&
      state.epoch != 0 && state.packet_count == packet_count && state.received_count >= 0 &&
      state.received_count <= packet_count && (bitmap_len != 0) == partial;
  if (!valid) return frame;
  state.bitmap.assign(data + kStateFixedSize, data + kStateFixedSize + bitmap_len);
  frame.state = std::move(state);
  return frame;
}

}  // namespace fobs::posix

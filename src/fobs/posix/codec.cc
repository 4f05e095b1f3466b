#include "fobs/posix/codec.h"

#include <cstring>

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

// Control-stream frame tokens (the first 8 bytes of every frame).
constexpr std::uint64_t kCompletionToken = 0x464F4253444F4E45ull;  // "FOBSDONE"
constexpr std::uint64_t kResumeToken = 0x464F425352534D45ull;      // "FOBSRSME"
constexpr std::uint64_t kHelloToken = 0x464F425348454C4Full;       // "FOBSHELO"

}  // namespace

void encode_data_header(const DataHeader& header, std::uint8_t* out) {
  put_u32(out, kMagic);
  out[4] = kTypeData;
  out[5] = out[6] = out[7] = 0;
  put_u64(out + 8, static_cast<std::uint64_t>(header.seq));
  put_u32(out + 16, header.payload_crc);
}

std::optional<DataHeader> decode_data_header(const std::uint8_t* data, std::size_t len) {
  if (len < kDataHeaderSize) return std::nullopt;
  if (get_u32(data) != kMagic || data[4] != kTypeData) return std::nullopt;
  DataHeader header;
  header.seq = static_cast<fobs::core::PacketSeq>(get_u64(data + 8));
  header.payload_crc = get_u32(data + 16);
  return header;
}

std::uint32_t payload_crc(const std::uint8_t* payload, std::size_t len) {
  return fobs::util::crc32(payload, len);
}

std::vector<std::uint8_t> encode_ack(const fobs::core::AckMessage& ack) {
  std::vector<std::uint8_t> out(kAckFixedSize + ack.fragment.size());
  put_u32(out.data(), kMagic);
  out[4] = kTypeAck;
  out[5] = ack.complete ? 1 : 0;
  out[6] = out[7] = 0;
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

std::vector<std::uint8_t> encode_resume(std::int64_t packet_count,
                                        std::int64_t received_count,
                                        const std::vector<std::uint8_t>& bitmap) {
  std::vector<std::uint8_t> out(kResumeFixedSize + bitmap.size() + kResumeTrailerSize);
  put_u64(out.data(), kResumeToken);
  put_u64(out.data() + 8, static_cast<std::uint64_t>(packet_count));
  put_u64(out.data() + 16, static_cast<std::uint64_t>(received_count));
  put_u32(out.data() + 24, static_cast<std::uint32_t>(bitmap.size()));
  if (!bitmap.empty()) {
    std::memcpy(out.data() + kResumeFixedSize, bitmap.data(), bitmap.size());
  }
  // Seal everything after the token so a desynced stream cannot smuggle
  // a plausible-looking bitmap through.
  const std::uint32_t crc =
      fobs::util::crc32(out.data() + 8, kResumeFixedSize - 8 + bitmap.size());
  put_u32(out.data() + kResumeFixedSize + bitmap.size(), crc);
  return out;
}

std::size_t resume_frame_size(std::int64_t packet_count) {
  const auto bitmap_bytes = static_cast<std::size_t>((packet_count + 7) / 8);
  return kResumeFixedSize + bitmap_bytes + kResumeTrailerSize;
}

std::optional<ResumeFrame> decode_resume(const std::uint8_t* data, std::size_t len) {
  if (len < kResumeFixedSize + kResumeTrailerSize) return std::nullopt;
  if (get_u64(data) != kResumeToken) return std::nullopt;
  ResumeFrame frame;
  frame.packet_count = static_cast<std::int64_t>(get_u64(data + 8));
  frame.received_count = static_cast<std::int64_t>(get_u64(data + 16));
  const std::size_t bitmap_len = get_u32(data + 24);
  if (frame.packet_count < 0 || frame.received_count < 0) return std::nullopt;
  // The bitmap length field is 32-bit, so any packet count its 8x can't
  // express is malformed (also avoids overflow in the division below).
  if (frame.packet_count > static_cast<std::int64_t>(0xFFFFFFFFull) * 8) return std::nullopt;
  if (bitmap_len != static_cast<std::size_t>((frame.packet_count + 7) / 8)) {
    return std::nullopt;
  }
  if (len < kResumeFixedSize + bitmap_len + kResumeTrailerSize) return std::nullopt;
  const std::uint32_t crc = fobs::util::crc32(data + 8, kResumeFixedSize - 8 + bitmap_len);
  if (crc != get_u32(data + kResumeFixedSize + bitmap_len)) return std::nullopt;
  frame.bitmap.assign(data + kResumeFixedSize, data + kResumeFixedSize + bitmap_len);
  return frame;
}

std::array<std::uint8_t, kHelloFrameSize> encode_hello(std::uint32_t epoch) {
  std::array<std::uint8_t, kHelloFrameSize> out{};
  put_u64(out.data(), kHelloToken);
  put_u64(out.data() + 8, epoch);
  return out;
}

std::array<std::uint8_t, kCompletionFrameSize> encode_completion() {
  std::array<std::uint8_t, kCompletionFrameSize> out{};
  put_u64(out.data(), kCompletionToken);
  return out;
}

ControlFrame next_control_frame(const std::uint8_t* data, std::size_t len,
                                std::int64_t packet_count) {
  ControlFrame frame;
  if (len < 8) return frame;
  const std::uint64_t token = get_u64(data);
  if (token == kCompletionToken) {
    frame.kind = ControlFrameKind::kCompletion;
    frame.consumed = kCompletionFrameSize;
  } else if (token == kHelloToken) {
    if (len < kHelloFrameSize) return frame;
    frame.kind = ControlFrameKind::kHello;
    frame.consumed = kHelloFrameSize;
    frame.epoch = static_cast<std::uint32_t>(get_u64(data + 8));
  } else if (token == kResumeToken) {
    const std::size_t size = resume_frame_size(packet_count);
    if (len < size) return frame;
    frame.kind = ControlFrameKind::kResume;
    frame.consumed = size;
    frame.resume = decode_resume(data, size);
    if (frame.resume && frame.resume->packet_count != packet_count) frame.resume.reset();
  } else {
    frame.kind = ControlFrameKind::kDesync;
  }
  return frame;
}

}  // namespace fobs::posix

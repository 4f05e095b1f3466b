#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace fobs::util {

namespace {

using Table = std::array<std::uint32_t, 256>;

// kTables[0] is the classic byte table; kTables[k] advances a byte
// through k further zero bytes, so eight lookups fold one 8-byte word.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? 0x82F63B78u ^ (c >> 1) : c >> 1;
    }
    tables[0][i] = c;
  }
  for (std::size_t k = 1; k < tables.size(); ++k) {
    for (std::uint32_t i = 0; i < 256; ++i) {
      const std::uint32_t prev = tables[k - 1][i];
      tables[k][i] = (prev >> 8) ^ tables[0][prev & 0xFFu];
    }
  }
  return tables;
}

constexpr auto kTables = make_tables();

std::uint32_t load_le32(const std::uint8_t* p) {
  return static_cast<std::uint32_t>(p[0]) | (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) | (static_cast<std::uint32_t>(p[3]) << 24);
}

#if defined(__x86_64__)
__attribute__((target("sse4.2"))) std::uint32_t crc32_sse42(const std::uint8_t* data,
                                                              std::size_t len,
                                                              std::uint32_t seed) {
  std::uint64_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    std::uint64_t word;
    std::memcpy(&word, data, sizeof word);  // unaligned, and clean under ubsan
    c = _mm_crc32_u64(c, word);
  }
  auto c32 = static_cast<std::uint32_t>(c);
  for (; len > 0; ++data, --len) c32 = _mm_crc32_u8(c32, *data);
  return c32 ^ 0xFFFFFFFFu;
}
#endif

using CrcFn = std::uint32_t (*)(const std::uint8_t*, std::size_t, std::uint32_t);

CrcFn pick_path() {
#if defined(__x86_64__)
  __builtin_cpu_init();
  if (__builtin_cpu_supports("sse4.2")) return crc32_sse42;
#endif
  return crc32_portable;
}

}  // namespace

std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  std::uint32_t c = seed ^ 0xFFFFFFFFu;
  for (; len >= 8; data += 8, len -= 8) {
    const std::uint32_t lo = load_le32(data) ^ c;
    const std::uint32_t hi = load_le32(data + 4);
    c = kTables[7][lo & 0xFFu] ^ kTables[6][(lo >> 8) & 0xFFu] ^
        kTables[5][(lo >> 16) & 0xFFu] ^ kTables[4][lo >> 24] ^ kTables[3][hi & 0xFFu] ^
        kTables[2][(hi >> 8) & 0xFFu] ^ kTables[1][(hi >> 16) & 0xFFu] ^ kTables[0][hi >> 24];
  }
  for (; len > 0; ++data, --len) c = kTables[0][(c ^ *data) & 0xFFu] ^ (c >> 8);
  return c ^ 0xFFFFFFFFu;
}

std::uint32_t crc32(const std::uint8_t* data, std::size_t len, std::uint32_t seed) {
  static const CrcFn path = pick_path();
  return path(data, len, seed);
}

}  // namespace fobs::util

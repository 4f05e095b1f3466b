#include "common/crc32.h"

#include <array>
#include <cstring>

#if defined(__x86_64__)
#include <nmmintrin.h>
#endif

namespace fobs::util {

namespace {

using Table = std::array<std::uint32_t, 256>;

constexpr std::uint32_t kPoly = 0x82F63B78u;  // reflected

// kTables[0] is the classic byte table; kTables[k] advances a byte
// through k further zero bytes, so eight lookups fold one 8-byte word.
constexpr std::array<Table, 8> make_tables() {
  std::array<Table, 8> tables{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int bit = 0; bit < 8; ++bit) {
      c = (c & 1u) != 0 ? kPoly ^ (c >> 1) : c >> 1;
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

// Polynomials over GF(2) modulo the CRC polynomial, in the CRC's
// reflected bit order: bit 31 holds x^0. The initial and final
// inversions cancel in crc(A||B) = crc(A) * x^(8|B|) + crc(B), so
// combining is one multiplication by a power of x.

/// a * b modulo the CRC polynomial.
constexpr std::uint32_t multiply_mod(std::uint32_t a, std::uint32_t b) {
  std::uint32_t product = 0;
  for (std::uint32_t m = 1u << 31; m != 0; m >>= 1) {
    if ((a & m) != 0) product ^= b;
    b = (b & 1u) != 0 ? (b >> 1) ^ kPoly : b >> 1;
  }
  return product;
}

/// kPowers[k] = x^(2^k) modulo the CRC polynomial, for every bit of a
/// 64-bit byte count times 8.
constexpr std::array<std::uint32_t, 67> make_powers() {
  std::array<std::uint32_t, 67> powers{};
  std::uint32_t p = 1u << 30;  // x^1
  for (auto& power : powers) {
    power = p;
    p = multiply_mod(p, p);
  }
  return powers;
}

constexpr auto kPowers = make_powers();

/// x^(8 * bytes) modulo the CRC polynomial: the shift over `bytes` zero bytes.
std::uint32_t zero_bytes_shift(std::size_t bytes) {
  std::uint32_t shift = 1u << 31;  // x^0
  for (std::size_t k = 3; bytes != 0; bytes >>= 1, ++k) {
    if ((bytes & 1u) != 0) shift = multiply_mod(kPowers[k], shift);
  }
  return shift;
}

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

std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b, std::size_t len_b) {
  return multiply_mod(zero_bytes_shift(len_b), crc_a) ^ crc_b;
}

Crc32Append::Crc32Append(std::size_t len_b) {
  const std::uint32_t shift = zero_bytes_shift(len_b);
  // The shift is linear in crc_a: each table is the XOR span of the
  // shifted images of its byte's eight bits.
  for (std::size_t k = 0; k < tables_.size(); ++k) {
    auto& table = tables_[k];
    for (std::uint32_t v = 1; v < 256; ++v) {
      const std::uint32_t low = v & (0u - v);
      table[v] = v == low ? multiply_mod(shift, v << (8 * k)) : table[v ^ low] ^ table[low];
    }
  }
}

}  // namespace fobs::util

// CRC-32C (Castagnoli, reflected, polynomial 0x82F63B78).
//
// The one integrity check in the program: it seals every POSIX data
// packet (header and payload), every receiver-state frame, every resume
// checkpoint and the fetched object's checksum. On x86-64 CPUs with
// SSE4.2 it runs the `crc32` instruction over 8-byte words; everywhere
// else it runs slicing-by-8 over constexpr tables. The path is chosen
// once, from the CPU, and both give the same value for the same bytes.
//
// crc32_combine() builds the CRC of a concatenation from the CRCs of its
// parts, so a receiver that checks every packet also has the object's
// CRC without a second pass over its bytes.
#pragma once

#include <array>
#include <cstddef>
#include <cstdint>

namespace fobs::util {

/// CRC-32C of `len` bytes starting from `seed` (pass the previous
/// return value to checksum discontiguous regions as one stream).
[[nodiscard]] std::uint32_t crc32(const std::uint8_t* data, std::size_t len,
                                  std::uint32_t seed = 0);

/// The portable slicing-by-8 path crc32() takes on CPUs without SSE4.2;
/// same contract. Exposed so tests and benchmarks can run it anywhere.
[[nodiscard]] std::uint32_t crc32_portable(const std::uint8_t* data, std::size_t len,
                                           std::uint32_t seed = 0);

/// CRC-32C of A followed by B, from crc32(A), crc32(B) and B's length
/// (zlib's crc32_combine, for this polynomial). Either part may be empty.
[[nodiscard]] std::uint32_t crc32_combine(std::uint32_t crc_a, std::uint32_t crc_b,
                                          std::size_t len_b);

/// crc32_combine() for one fixed `len_b`, precomputed so that each call
/// is four table lookups: folds per-packet CRCs of equal-length packets
/// into their concatenation's CRC.
class Crc32Append {
 public:
  explicit Crc32Append(std::size_t len_b);
  /// crc32_combine(crc_a, crc_b, len_b).
  [[nodiscard]] std::uint32_t operator()(std::uint32_t crc_a, std::uint32_t crc_b) const {
    return tables_[0][crc_a & 0xFFu] ^ tables_[1][(crc_a >> 8) & 0xFFu] ^
           tables_[2][(crc_a >> 16) & 0xFFu] ^ tables_[3][crc_a >> 24] ^ crc_b;
  }

 private:
  /// tables_[k][v]: byte v at bit 8k of crc_a, advanced over len_b zero bytes.
  std::array<std::array<std::uint32_t, 256>, 4> tables_{};
};

}  // namespace fobs::util

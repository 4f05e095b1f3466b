// CRC-32C (Castagnoli, reflected, polynomial 0x82F63B78).
//
// The one integrity check in the program: it seals every POSIX data
// packet (header and payload), every receiver-state frame, every resume
// checkpoint and the fetched object's checksum. On x86-64 CPUs with
// SSE4.2 it runs the `crc32` instruction over 8-byte words; everywhere
// else it runs slicing-by-8 over constexpr tables. The path is chosen
// once, from the CPU, and both give the same value for the same bytes.
#pragma once

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

}  // namespace fobs::util

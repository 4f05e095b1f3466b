// The "object" in object-based transfer: a contiguous buffer that is
// fully allocated before the transfer starts (the paper's fundamental
// assumption — "the user-level data buffer spans the entire object").
//
// Backing stores: owned memory (allocated or generated test patterns),
// read-only memory-mapped files (so multi-gigabyte files can be sent
// without loading them through the heap), and writable shared mappings
// (so a receive buffer persists to disk as it fills — the basis for
// crash-safe resumable fetches).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace fobs::core {

/// Deterministic pseudo-random test pattern of `bytes` bytes, the same
/// for the same seed: one 64-bit draw per 8 bytes, and one more for a
/// shorter tail.
std::vector<std::uint8_t> make_pattern(std::int64_t bytes, std::uint64_t seed);

class TransferObject {
 public:
  TransferObject() = default;
  ~TransferObject();

  TransferObject(TransferObject&& other) noexcept;
  TransferObject& operator=(TransferObject&& other) noexcept;
  TransferObject(const TransferObject&) = delete;
  TransferObject& operator=(const TransferObject&) = delete;

  /// Zero-filled writable buffer (receive side).
  static TransferObject allocate(std::int64_t bytes);
  /// Deterministic pseudo-random content (tests, benchmarks): the bytes
  /// of make_pattern(bytes, seed).
  static TransferObject pattern(std::int64_t bytes, std::uint64_t seed);
  /// Adopts an existing vector.
  static TransferObject from_vector(std::vector<std::uint8_t> data);
  /// Memory-maps `path` read-only; nullopt on failure (missing file,
  /// empty file, mmap error).
  static std::optional<TransferObject> map_file(const std::string& path);
  /// Creates (or opens) `path`, resizes it to exactly `bytes`, and maps
  /// it read-write and *shared*: every byte written through
  /// mutable_view() lands in the file's page cache immediately, so the
  /// on-disk file tracks the buffer even if the process is killed.
  /// Existing content within `bytes` is preserved. nullopt on failure.
  static std::optional<TransferObject> map_file_rw(const std::string& path,
                                                   std::int64_t bytes);

  [[nodiscard]] std::int64_t size() const { return size_; }
  [[nodiscard]] bool empty() const { return size_ == 0; }
  [[nodiscard]] std::span<const std::uint8_t> view() const { return {data_, static_cast<std::size_t>(size_)}; }
  /// Writable view; invalid for read-only mapped objects — asserts.
  [[nodiscard]] std::span<std::uint8_t> mutable_view();
  [[nodiscard]] bool is_mapped() const { return mapped_; }
  [[nodiscard]] bool is_writable() const { return !mapped_ || writable_; }

  /// Flushes a writable mapping to stable storage (msync). True for
  /// non-mapped objects (nothing to flush) and on success.
  bool sync();

  /// CRC-32C of the content (util::crc32), widened (integrity spot check).
  [[nodiscard]] std::uint64_t checksum() const;

  /// Writes the content to `path`; false on I/O error.
  bool write_to_file(const std::string& path) const;

 private:
  void reset();

  std::uint8_t* data_ = nullptr;
  std::int64_t size_ = 0;
  bool mapped_ = false;               ///< via mmap
  bool writable_ = false;             ///< mapped MAP_SHARED read-write
  std::vector<std::uint8_t> owned_;   ///< backing store when not mapped
};

}  // namespace fobs::core

// The "object" in object-based transfer: a contiguous buffer that is
// fully allocated before the transfer starts (the paper's fundamental
// assumption — "the user-level data buffer spans the entire object").
//
// Backing stores: owned memory (allocated or generated test patterns),
// read-only memory-mapped files (so multi-gigabyte files can be sent
// without loading them through the heap), and writable shared mappings
// (so a receive buffer persists to disk as it fills — the basis for
// crash-safe resumable fetches). A WriteBehind starts the writeback of
// such a mapping's finished pages while the rest is still arriving, so
// the final msync finds little left to write.
#pragma once

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
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
  /// Creates (or opens) `path`, resizes it to exactly `bytes`, reserves
  /// its blocks (fallocate, where the filesystem has it), and maps it
  /// read-write and *shared*: every byte written through mutable_view()
  /// lands in the file's page cache immediately, so the on-disk file
  /// tracks the buffer even if the process is killed. Existing content
  /// within `bytes` is preserved. The file stays open for
  /// start_writeback(). nullopt on failure (a full disk included).
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
  /// Starts writeback of `bytes` (a range of view() that nothing will
  /// write again) of a writable file mapping and returns without waiting
  /// for it (sync_file_range's SYNC_FILE_RANGE_WRITE). The range's whole
  /// pages leave this process's page tables (the page cache keeps them;
  /// a read faults them back). Durability still needs sync(). True for
  /// objects with no file behind them and on success.
  bool start_writeback(std::span<const std::uint8_t> bytes) const;

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
  int fd_ = -1;                       ///< the file of a writable mapping
  std::vector<std::uint8_t> owned_;   ///< backing store when not mapped
};

/// The page size receive flows align the ranges they hand over to.
inline constexpr std::size_t kPageBytes = 4096;
/// A receive flow hands its stripe's whole pages over in windows of this
/// many bytes (a multiple of kPageBytes), each once its last packet is in.
inline constexpr std::size_t kWriteBehindWindowBytes = std::size_t{4} << 20;

/// Where receive flows report the pages of their buffer that they will
/// never write again. Called from several flow threads at once; must not
/// block on I/O.
class WriteBehindSink {
 public:
  virtual ~WriteBehindSink() = default;
  /// `bytes` (whole pages of the buffer) are final.
  virtual void written(std::span<const std::uint8_t> bytes) = 0;
};

/// One helper thread that starts the writeback of each range a flow
/// reports final (TransferObject::start_writeback), so the I/O overlaps
/// the transfer instead of following it. written() only queues the range
/// and wakes the helper.
class WriteBehind final : public WriteBehindSink {
 public:
  /// `object` must outlive this (join() or destruction).
  explicit WriteBehind(const TransferObject& object);
  ~WriteBehind() override { join(); }

  WriteBehind(const WriteBehind&) = delete;
  WriteBehind& operator=(const WriteBehind&) = delete;

  void written(std::span<const std::uint8_t> bytes) override;
  /// Starts writeback of whatever is still queued, then joins the helper.
  /// Ranges reported afterwards are dropped.
  void join();

 private:
  void run();

  const TransferObject& object_;
  std::mutex mu_;
  std::condition_variable cv_;
  std::vector<std::span<const std::uint8_t>> queue_;  ///< guarded by mu_
  bool stopping_ = false;                             ///< guarded by mu_
  std::thread helper_;
};

}  // namespace fobs::core

// Port allocator for the control ports of engine transfers.
//
// Pure bookkeeping over a configured range [base, base + count) —
// nothing binds here; callers bind whatever they are handed. A
// transfer of N flows leases a *contiguous* block of N ports in one
// shot (per-flow control ports are first-plus-index on the wire, so
// they must be adjacent); one flow is a block of 1.
//
// Thread-safe: every method takes an internal lock, so the engine's
// flow teardown, concurrent catalog grants, and user calls can all hit
// it at once.
#pragma once

#include <cstdint>
#include <mutex>
#include <optional>
#include <vector>

namespace fobs::posix {

class PortAllocator {
 public:
  /// A range reaching past port 65535 would wrap uint16_t arithmetic
  /// and hand out unintended low-numbered ports; the constructor clamps
  /// it to the valid tail. Base 0 is not a usable listening port and
  /// disables the allocator (capacity 0), as does count 0.
  PortAllocator(std::uint16_t base, std::uint16_t count);

  PortAllocator(const PortAllocator&) = delete;
  PortAllocator& operator=(const PortAllocator&) = delete;

  /// Lowest-based contiguous run of `count` free ports (first fit), or
  /// nullopt when no such run exists or the allocator is disabled.
  /// Release with release_block — or port-by-port via release(); the
  /// block has no identity beyond its members.
  std::optional<std::uint16_t> allocate_block(std::size_t count);

  /// Returns one port to the pool. Ports outside the configured range
  /// (including 0) and double releases are ignored.
  void release(std::uint16_t port);
  void release_block(std::uint16_t first, std::size_t count);

  [[nodiscard]] std::size_t free_count() const;
  [[nodiscard]] std::uint16_t base() const { return base_; }
  /// Post-clamp range size.
  [[nodiscard]] std::size_t capacity() const { return in_use_.size(); }

 private:
  std::uint16_t base_ = 0;
  mutable std::mutex mu_;
  std::vector<bool> in_use_;  ///< guarded by mu_
  std::size_t free_ = 0;      ///< guarded by mu_
};

}  // namespace fobs::posix

#include "fobs/posix/port_allocator.h"

#include <algorithm>

namespace fobs::posix {

PortAllocator::PortAllocator(std::uint16_t base, std::uint16_t count) : base_(base) {
  std::uint32_t size = count;
  if (base == 0) {
    size = 0;
  } else {
    const std::uint32_t room = 0x1'0000u - base;
    size = std::min<std::uint32_t>(size, room);
  }
  in_use_.assign(size, false);
  free_ = size;
}

std::optional<std::uint16_t> PortAllocator::allocate_block(std::size_t count) {
  if (count == 0) return std::nullopt;
  std::lock_guard lock(mu_);
  if (free_ < count || count > in_use_.size()) return std::nullopt;
  std::size_t run = 0;
  for (std::size_t i = 0; i < in_use_.size(); ++i) {
    run = in_use_[i] ? 0 : run + 1;
    if (run == count) {
      const std::size_t first = i + 1 - count;
      for (std::size_t j = first; j <= i; ++j) in_use_[j] = true;
      free_ -= count;
      return static_cast<std::uint16_t>(base_ + first);
    }
  }
  return std::nullopt;
}

void PortAllocator::release(std::uint16_t port) {
  std::lock_guard lock(mu_);
  if (port < base_) return;
  const std::size_t i = static_cast<std::size_t>(port) - base_;
  if (i >= in_use_.size() || !in_use_[i]) return;
  in_use_[i] = false;
  ++free_;
}

void PortAllocator::release_block(std::uint16_t first, std::size_t count) {
  for (std::size_t i = 0; i < count; ++i) {
    release(static_cast<std::uint16_t>(first + i));
  }
}

std::size_t PortAllocator::free_count() const {
  std::lock_guard lock(mu_);
  return free_;
}

}  // namespace fobs::posix

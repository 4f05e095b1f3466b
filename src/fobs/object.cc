#include "fobs/object.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cassert>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/crc32.h"
#include "common/rng.h"

namespace fobs::core {

std::vector<std::uint8_t> make_pattern(std::int64_t bytes, std::uint64_t seed) {
  assert(bytes >= 0);
  std::vector<std::uint8_t> data(static_cast<std::size_t>(bytes));
  fobs::util::Rng rng(seed);
  std::size_t i = 0;
  for (; i + 8 <= data.size(); i += 8) {
    const std::uint64_t v = rng.next();
    std::memcpy(data.data() + i, &v, 8);
  }
  if (i < data.size()) {
    const std::uint64_t v = rng.next();
    std::memcpy(data.data() + i, &v, data.size() - i);
  }
  return data;
}

TransferObject::~TransferObject() { reset(); }

void TransferObject::reset() {
  if (mapped_ && data_ != nullptr) {
    ::munmap(data_, static_cast<std::size_t>(size_));
  }
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  writable_ = false;
  owned_.clear();
}

TransferObject::TransferObject(TransferObject&& other) noexcept { *this = std::move(other); }

TransferObject& TransferObject::operator=(TransferObject&& other) noexcept {
  if (this != &other) {
    reset();
    owned_ = std::move(other.owned_);
    size_ = other.size_;
    mapped_ = other.mapped_;
    writable_ = other.writable_;
    fd_ = std::exchange(other.fd_, -1);
    // For owned objects the pointer must track the moved vector.
    data_ = mapped_ ? other.data_ : owned_.data();
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
    other.writable_ = false;
  }
  return *this;
}

TransferObject TransferObject::allocate(std::int64_t bytes) {
  assert(bytes >= 0);
  TransferObject object;
  object.owned_.assign(static_cast<std::size_t>(bytes), 0);
  object.data_ = object.owned_.data();
  object.size_ = bytes;
  return object;
}

TransferObject TransferObject::pattern(std::int64_t bytes, std::uint64_t seed) {
  return from_vector(make_pattern(bytes, seed));
}

TransferObject TransferObject::from_vector(std::vector<std::uint8_t> data) {
  TransferObject object;
  object.owned_ = std::move(data);
  object.data_ = object.owned_.data();
  object.size_ = static_cast<std::int64_t>(object.owned_.size());
  return object;
}

std::optional<TransferObject> TransferObject::map_file(const std::string& path) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return std::nullopt;
  struct stat st{};
  if (::fstat(fd, &st) != 0 || st.st_size <= 0) {
    ::close(fd);
    return std::nullopt;
  }
  void* addr = ::mmap(nullptr, static_cast<std::size_t>(st.st_size), PROT_READ, MAP_PRIVATE,
                      fd, 0);
  ::close(fd);  // the mapping holds its own reference
  if (addr == MAP_FAILED) return std::nullopt;
  TransferObject object;
  object.data_ = static_cast<std::uint8_t*>(addr);
  object.size_ = static_cast<std::int64_t>(st.st_size);
  object.mapped_ = true;
  return object;
}

std::optional<TransferObject> TransferObject::map_file_rw(const std::string& path,
                                                          std::int64_t bytes) {
  if (bytes <= 0) return std::nullopt;
  const int fd = ::open(path.c_str(), O_RDWR | O_CREAT, 0644);
  if (fd < 0) return std::nullopt;
  struct stat st{};
  // Reserving the blocks up front makes a full disk fail here rather
  // than as SIGBUS on a page write, and leaves writeback no blocks to
  // allocate while the receiver is still faulting pages in.
  if (::fstat(fd, &st) != 0 ||
      (st.st_size != bytes && ::ftruncate(fd, bytes) != 0) ||
      (::fallocate(fd, 0, 0, bytes) != 0 && errno != EOPNOTSUPP)) {
    ::close(fd);
    return std::nullopt;
  }
  void* addr = ::mmap(nullptr, static_cast<std::size_t>(bytes), PROT_READ | PROT_WRITE,
                      MAP_SHARED, fd, 0);
  if (addr == MAP_FAILED) {
    ::close(fd);
    return std::nullopt;
  }
  TransferObject object;
  object.data_ = static_cast<std::uint8_t*>(addr);
  object.size_ = bytes;
  object.mapped_ = true;
  object.writable_ = true;
  object.fd_ = fd;  // kept for start_writeback()
  return object;
}

std::span<std::uint8_t> TransferObject::mutable_view() {
  assert(is_writable() && "read-only mapped objects cannot be written");
  return {data_, static_cast<std::size_t>(size_)};
}

bool TransferObject::sync() {
  if (!mapped_ || !writable_ || data_ == nullptr) return true;
  return ::msync(data_, static_cast<std::size_t>(size_), MS_SYNC) == 0;
}

bool TransferObject::start_writeback(std::span<const std::uint8_t> bytes) const {
  if (fd_ < 0 || bytes.empty()) return true;
  assert(bytes.data() >= data_ && bytes.data() + bytes.size() <= data_ + size_);
  // Unmap the range's whole pages first. Writing back a page that is
  // still mapped dirty write-protects it, one TLB shootdown per page that
  // interrupts every running thread of the process (about 1.4 s of CPU
  // per GiB fetched in 1 KiB packets on a 4-core x86-64 VM). The page
  // cache keeps the bytes, and view() faults them back in.
  static const auto page = static_cast<std::uintptr_t>(::sysconf(_SC_PAGESIZE));
  const auto at = reinterpret_cast<std::uintptr_t>(bytes.data());
  const auto begin = (at + page - 1) & ~(page - 1);
  const auto end = (at + bytes.size()) & ~(page - 1);
  if (end > begin) (void)::madvise(reinterpret_cast<void*>(begin), end - begin, MADV_DONTNEED);
  return ::sync_file_range(fd_, bytes.data() - data_, static_cast<off_t>(bytes.size()),
                           SYNC_FILE_RANGE_WRITE) == 0;
}

std::uint64_t TransferObject::checksum() const {
  return fobs::util::crc32(data_, static_cast<std::size_t>(size_));
}

bool TransferObject::write_to_file(const std::string& path) const {
  std::ofstream out(path, std::ios::binary);
  if (!out) return false;
  out.write(reinterpret_cast<const char*>(data_), static_cast<std::streamsize>(size_));
  return out.good();
}

WriteBehind::WriteBehind(const TransferObject& object)
    : object_(object), helper_([this] { run(); }) {}

void WriteBehind::written(std::span<const std::uint8_t> bytes) {
  {
    std::lock_guard lock(mu_);
    if (stopping_) return;
    queue_.push_back(bytes);
  }
  cv_.notify_one();
}

void WriteBehind::join() {
  {
    std::lock_guard lock(mu_);
    stopping_ = true;
  }
  cv_.notify_one();
  if (helper_.joinable()) helper_.join();
}

void WriteBehind::run() {
  std::vector<std::span<const std::uint8_t>> batch;
  for (bool last = false; !last;) {
    {
      std::unique_lock lock(mu_);
      cv_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
      batch.swap(queue_);
      last = stopping_;
    }
    // A failed start only leaves the pages to the final msync.
    for (const auto bytes : batch) (void)object_.start_writeback(bytes);
    batch.clear();
  }
}

}  // namespace fobs::core

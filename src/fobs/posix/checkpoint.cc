#include "fobs/posix/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <utility>

#include "common/crc32.h"
#include "common/log.h"

namespace fobs::posix {

namespace {

// "FOBSCKP" + format version 1.
constexpr std::uint64_t kCheckpointMagic = 0x464F4253434B5031ull;
constexpr std::size_t kHeaderSize = 8 + 8 + 8 + 8 + 8;  // magic + 3 counts + bitmap len

void put_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (56 - 8 * i));
}

std::uint64_t get_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v = (v << 8) | p[i];
  return v;
}

}  // namespace

bool save_checkpoint(const std::string& path, const Checkpoint& checkpoint) {
  std::vector<std::uint8_t> blob(kHeaderSize + checkpoint.bitmap.size() + 4);
  put_u64(blob.data(), kCheckpointMagic);
  put_u64(blob.data() + 8, static_cast<std::uint64_t>(checkpoint.object_bytes));
  put_u64(blob.data() + 16, static_cast<std::uint64_t>(checkpoint.packet_bytes));
  put_u64(blob.data() + 24, static_cast<std::uint64_t>(checkpoint.received_count));
  put_u64(blob.data() + 32, static_cast<std::uint64_t>(checkpoint.bitmap.size()));
  if (!checkpoint.bitmap.empty()) {
    std::memcpy(blob.data() + kHeaderSize, checkpoint.bitmap.data(),
                checkpoint.bitmap.size());
  }
  const std::uint32_t crc =
      fobs::util::crc32(blob.data() + 8, kHeaderSize - 8 + checkpoint.bitmap.size());
  for (int i = 0; i < 4; ++i) {
    blob[kHeaderSize + checkpoint.bitmap.size() + static_cast<std::size_t>(i)] =
        static_cast<std::uint8_t>(crc >> (24 - 8 * i));
  }

  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) return false;
    out.write(reinterpret_cast<const char*>(blob.data()),
              static_cast<std::streamsize>(blob.size()));
    if (!out) return false;
  }
  // rename() is atomic within a filesystem: readers see either the old
  // checkpoint or the new one, never a torn file.
  return std::rename(tmp.c_str(), path.c_str()) == 0;
}

std::optional<Checkpoint> load_checkpoint(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::vector<std::uint8_t> blob((std::istreambuf_iterator<char>(in)),
                                 std::istreambuf_iterator<char>());
  if (blob.size() < kHeaderSize + 4) return std::nullopt;
  if (get_u64(blob.data()) != kCheckpointMagic) return std::nullopt;

  Checkpoint checkpoint;
  checkpoint.object_bytes = static_cast<std::int64_t>(get_u64(blob.data() + 8));
  checkpoint.packet_bytes = static_cast<std::int64_t>(get_u64(blob.data() + 16));
  checkpoint.received_count = static_cast<std::int64_t>(get_u64(blob.data() + 24));
  const std::uint64_t bitmap_len = get_u64(blob.data() + 32);
  if (checkpoint.object_bytes < 0 || checkpoint.packet_bytes <= 0 ||
      checkpoint.received_count < 0 ||
      checkpoint.object_bytes > (std::int64_t{1} << 50)) {  // overflow guard
    return std::nullopt;
  }
  if (blob.size() != kHeaderSize + bitmap_len + 4) return std::nullopt;
  if (bitmap_len !=
      static_cast<std::uint64_t>((checkpoint.packet_count() + 7) / 8)) {
    return std::nullopt;
  }

  const std::uint32_t expected =
      fobs::util::crc32(blob.data() + 8, kHeaderSize - 8 + bitmap_len);
  std::uint32_t stored = 0;
  for (int i = 0; i < 4; ++i) {
    stored = (stored << 8) | blob[kHeaderSize + bitmap_len + static_cast<std::size_t>(i)];
  }
  if (stored != expected) return std::nullopt;

  checkpoint.bitmap.assign(blob.begin() + kHeaderSize,
                           blob.begin() + static_cast<std::ptrdiff_t>(kHeaderSize + bitmap_len));
  return checkpoint;
}

void remove_checkpoint(const std::string& path) { std::remove(path.c_str()); }

TransferCheckpoint::TransferCheckpoint(std::string path, std::int64_t object_bytes,
                                       std::int64_t packet_bytes)
    : path_(std::move(path)),
      shape_{object_bytes, packet_bytes, 0, {}},
      bitmap_(static_cast<std::size_t>(shape_.packet_count())) {
  const auto checkpoint = load_checkpoint(path_);
  if (!checkpoint) return;
  if (checkpoint->object_bytes != object_bytes || checkpoint->packet_bytes != packet_bytes) {
    FOBS_WARN("fobs.checkpoint",
              "checkpoint at " << path_ << " does not match this transfer; ignoring");
    return;
  }
  bitmap_.merge_range(0, bitmap_.size(), checkpoint->bitmap.data(), checkpoint->bitmap.size());
  loaded_ = on_disk_ = true;
}

std::optional<std::vector<std::uint8_t>> TransferCheckpoint::restored(std::size_t first,
                                                                      std::size_t count) const {
  if (!loaded_) return std::nullopt;
  std::lock_guard lock(mu_);
  return bitmap_.extract_range(first, first + count);
}

bool TransferCheckpoint::fold(std::size_t first, const fobs::util::Bitmap& local) {
  const auto packed = local.extract_range(0, local.size());
  std::lock_guard lock(mu_);
  bitmap_.merge_range(first, local.size(), packed.data(), packed.size());
  const Checkpoint checkpoint{shape_.object_bytes, shape_.packet_bytes,
                             static_cast<std::int64_t>(bitmap_.count()),
                             bitmap_.extract_range(0, bitmap_.size())};
  if (!save_checkpoint(path_, checkpoint)) return false;
  return on_disk_ = true;
}

void TransferCheckpoint::complete() {
  std::lock_guard lock(mu_);
  remove_checkpoint(path_);
  on_disk_ = false;
}

}  // namespace fobs::posix

#include "fobs/posix/checkpoint.h"

#include <cstdio>
#include <cstring>
#include <fstream>
#include <mutex>

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

namespace {

/// The checkpoint at `range.path` when it describes `range`'s object.
std::optional<Checkpoint> load_matching(const CheckpointRange& range) {
  auto checkpoint = load_checkpoint(range.path);
  if (!checkpoint) return std::nullopt;
  if (checkpoint->object_bytes != range.object_bytes ||
      checkpoint->packet_bytes != range.packet_bytes) {
    FOBS_WARN("fobs.checkpoint",
              "checkpoint at " << range.path << " does not match this transfer; ignoring");
    return std::nullopt;
  }
  return checkpoint;
}

}  // namespace

std::optional<std::vector<std::uint8_t>> load_checkpoint_range(const CheckpointRange& range) {
  const auto checkpoint = load_matching(range);
  if (!checkpoint) return std::nullopt;
  const auto packets = static_cast<std::size_t>(checkpoint->packet_count());
  fobs::util::Bitmap global(packets);
  global.merge_range(0, packets, checkpoint->bitmap.data(), checkpoint->bitmap.size());
  return global.extract_range(range.first, range.first + range.count);
}

bool fold_checkpoint_range(const CheckpointRange& range, const fobs::util::Bitmap& local) {
  static std::mutex mu;
  std::lock_guard lock(mu);
  Checkpoint checkpoint;
  checkpoint.object_bytes = range.object_bytes;
  checkpoint.packet_bytes = range.packet_bytes;
  const auto packets = static_cast<std::size_t>(checkpoint.packet_count());
  fobs::util::Bitmap global(packets);
  if (range.count < packets) {
    // Other flows own the rest of the bitmap: keep their bits.
    if (const auto existing = load_matching(range)) {
      global.merge_range(0, packets, existing->bitmap.data(), existing->bitmap.size());
    }
  }
  const auto packed = local.extract_range(0, range.count);
  global.merge_range(range.first, range.count, packed.data(), packed.size());
  if (global.all_set()) {
    remove_checkpoint(range.path);
    return true;
  }
  checkpoint.received_count = static_cast<std::int64_t>(global.count());
  checkpoint.bitmap = global.extract_range(0, packets);
  return save_checkpoint(range.path, checkpoint);
}

}  // namespace fobs::posix

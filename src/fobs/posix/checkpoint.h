// Resume checkpoints: the receiver's bitmap persisted to a sidecar file.
//
// The bitmap the FOBS receiver already maintains is a complete restart
// marker (FT-LADS' object-logging insight applied to this protocol):
// persist it periodically and a crashed receiver can restart, reload
// it, and — via the resume handshake on the control channel — have the
// sender skip every packet the previous incarnation already stored.
//
// The file is written atomically (temp file + rename) so a crash
// mid-checkpoint leaves the previous checkpoint intact, and sealed with
// a CRC-32C so a torn or foreign file is rejected instead of resuming
// from garbage.
//
// A checkpoint always describes the whole object, so a transfer resumes
// at any flow count. Each transfer owns one TransferCheckpoint: its
// flows restore and fold their contiguous ranges of the bitmap, and the
// engine (fobs/posix/engine.h) removes the file once it completes.
#pragma once

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "common/bitmap.h"

namespace fobs::posix {

struct Checkpoint {
  std::int64_t object_bytes = 0;
  std::int64_t packet_bytes = 0;
  std::int64_t received_count = 0;
  std::vector<std::uint8_t> bitmap;  ///< packed, Bitmap::extract_range format

  [[nodiscard]] std::int64_t packet_count() const {
    return packet_bytes > 0 ? (object_bytes + packet_bytes - 1) / packet_bytes : 0;
  }
};

/// Serializes `checkpoint` to `path` atomically. False on I/O failure.
bool save_checkpoint(const std::string& path, const Checkpoint& checkpoint);

/// Loads and validates a checkpoint; nullopt when the file is missing,
/// torn (CRC mismatch), or structurally inconsistent.
std::optional<Checkpoint> load_checkpoint(const std::string& path);

/// Removes a checkpoint file (used after a successful transfer).
void remove_checkpoint(const std::string& path);

/// One transfer's checkpoint at `path`: the whole object's bitmap,
/// loaded from the file once and kept in memory. Each flow restores its
/// range from it and folds that range back in; the engine removes the
/// file when the transfer completes. Calls are serialized per transfer.
class TransferCheckpoint {
 public:
  /// Loads `path` if it holds a checkpoint of this geometry (a missing,
  /// torn or foreign file leaves the bitmap empty).
  TransferCheckpoint(std::string path, std::int64_t object_bytes, std::int64_t packet_bytes);

  /// Bits [first, first + count), packed as Bitmap::extract_range does;
  /// nullopt when no file was loaded.
  std::optional<std::vector<std::uint8_t>> restored(std::size_t first, std::size_t count) const;
  /// ORs `local` into bits [first, first + local.size()) and saves the
  /// whole bitmap atomically. False on I/O failure.
  bool fold(std::size_t first, const fobs::util::Bitmap& local);
  /// The transfer completed: removes the file.
  void complete();
  /// True while the file holds this checkpoint (loaded or saved).
  [[nodiscard]] bool on_disk() const { return on_disk_; }

 private:
  const std::string path_;
  const Checkpoint shape_;  ///< the object geometry only
  mutable std::mutex mu_;
  fobs::util::Bitmap bitmap_;  ///< guarded by mu_
  bool loaded_ = false;        ///< set once, by the constructor
  std::atomic<bool> on_disk_{false};
};

}  // namespace fobs::posix

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
// a CRC32 so a torn or foreign file is rejected instead of resuming
// from garbage.
//
// A checkpoint always describes the whole object. The flows of one
// transfer (see fobs/stripe/striped_transfer.h) each own a contiguous
// range of its bitmap and share the one file, so a transfer resumes at
// any flow count.
#pragma once

#include <cstddef>
#include <cstdint>
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

/// One flow's range of an object-level checkpoint: global packets
/// [first, first + count) of an object of `object_bytes` in
/// `packet_bytes` packets. A single flow owns the whole object.
struct CheckpointRange {
  std::string path;
  std::int64_t object_bytes = 0;
  std::int64_t packet_bytes = 0;
  std::size_t first = 0;
  std::size_t count = 0;
};

/// The range's bits of the checkpoint at `range.path`, packed in
/// Bitmap::extract_range format; nullopt when the file is missing,
/// torn, or describes another object geometry.
std::optional<std::vector<std::uint8_t>> load_checkpoint_range(const CheckpointRange& range);

/// ORs `local` (the flow's bitmap, `range.count` bits) into its range
/// of the checkpoint and writes the file back with every other range
/// kept; removes the file instead once every packet of the object is
/// set. Calls are serialized process-wide, so concurrent flows never
/// lose each other's bits. False on I/O failure.
bool fold_checkpoint_range(const CheckpointRange& range, const fobs::util::Bitmap& local);

}  // namespace fobs::posix

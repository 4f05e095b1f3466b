// Sans-io stripe planning: partition an object's packet sequence space
// into K >= 1 disjoint contiguous stripes, one per flow of a transfer.
//
// A StripePlan is pure bookkeeping shared by both transfer peers: given
// the object geometry (TransferSpec) and a stripe count, it gives every
// stripe one contiguous range of the object's packet sequence space.
// Every transfer has one, built by the engine at submit time; a single
// flow is the one-stripe plan, whose local sequence space is the
// object's. Per-stripe packet counts are split evenly with the
// remainder spread over the first stripes (round_robin_split), so
// stripe byte ranges are contiguous file extents and stripe s's bits
// are one contiguous range of the object's bitmap — which is what lets
// every flow share one object-level checkpoint. The engine hands flow s
// its stripe as a standalone transfer: the geometry stripe_spec(s) and
// the object bytes from offset_of(first_packet(s)) on. The sans-io
// cores, ACK streams and bitmaps run on local sequence numbers
// [0, stripe_packets(s)) unchanged, and all flows write into one buffer
// at disjoint offsets with zero merge copies.
//
// Only the object's last packet can be short, and it is the last local
// packet of the last stripe. A stripe-local TransferSpec{stripe_bytes(s),
// packet_bytes} therefore yields the correct per-packet payload sizes
// without any special casing in the drivers.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "fobs/types.h"

namespace fobs::stripe {

/// Upper bound on stripes a peer may request or grant. Bounds the
/// per-transfer socket and session fan-out.
inline constexpr int kMaxStripes = 64;

/// Splits `total` items into `parts` buckets as evenly as possible,
/// spreading the remainder over the *first* buckets (bucket i gets
/// total/parts + (i < total%parts)). This is the one shared partition
/// rule: StripePlan uses it for per-stripe packet counts, and the
/// PSockets baseline uses it for per-stream byte counts.
[[nodiscard]] std::vector<std::int64_t> round_robin_split(std::int64_t total, int parts);

class StripePlan {
 public:
  StripePlan() = default;

  /// Builds a plan, or returns false and fills `error` when the request
  /// is unsatisfiable: invalid geometry, stripes outside
  /// [1, kMaxStripes], or more stripes than packets (an empty stripe
  /// would dead-lock its sub-transfer). Callers that want best-effort
  /// behaviour clamp with max_stripes() first.
  [[nodiscard]] static bool make(core::TransferSpec spec, int stripes, StripePlan* out,
                                 std::string* error = nullptr);

  /// Largest usable stripe count for this geometry:
  /// min(kMaxStripes, packet_count), and 0 for an empty object.
  [[nodiscard]] static int max_stripes(const core::TransferSpec& spec);

  [[nodiscard]] int stripe_count() const { return stripe_count_; }
  /// Geometry of the whole object.
  [[nodiscard]] const core::TransferSpec& spec() const { return spec_; }

  /// First global sequence owned by stripe `s`.
  [[nodiscard]] std::int64_t first_packet(int s) const {
    return prefix_[static_cast<std::size_t>(s)];
  }
  /// Packets owned by stripe `s` (>= 1 for every stripe).
  [[nodiscard]] std::int64_t stripe_packets(int s) const;
  /// Data bytes owned by stripe `s`; sums to spec().object_bytes.
  [[nodiscard]] std::int64_t stripe_bytes(int s) const;
  /// Geometry of stripe `s` viewed as a standalone transfer. Its
  /// payload_bytes(local) matches the owning global packet exactly.
  [[nodiscard]] core::TransferSpec stripe_spec(int s) const {
    return {stripe_bytes(s), spec_.packet_bytes};
  }

 private:
  core::TransferSpec spec_;
  int stripe_count_ = 1;
  /// prefix_[s] = first global seq of stripe s;
  /// prefix_[stripe_count_] = packet_count.
  std::vector<std::int64_t> prefix_;
};

}  // namespace fobs::stripe

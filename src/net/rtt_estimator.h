// Jacobson/Karels round-trip time estimation with Karn's algorithm and
// exponential RTO backoff (RFC 6298 structure, classic constants).
#pragma once

#include "common/units.h"

namespace fobs::net {

using fobs::util::Duration;

inline constexpr Duration kInitialRto = Duration::seconds(1);
inline constexpr Duration kMinRto = Duration::milliseconds(200);
inline constexpr Duration kMaxRto = Duration::seconds(60);
inline constexpr double kSrttGain = 1.0 / 8.0;
inline constexpr double kRttvarGain = 1.0 / 4.0;

class RttEstimator {
 public:
  /// Feeds one RTT sample from a segment that was *not* retransmitted
  /// (Karn's rule: callers must not sample retransmitted segments).
  void add_sample(Duration rtt);

  /// Current retransmission timeout, including any backoff.
  [[nodiscard]] Duration rto() const;

  /// Doubles the RTO (timer expiry). Sticky until the next valid sample.
  void backoff();
  /// Clears backoff (called on a valid new sample internally).
  [[nodiscard]] int backoff_count() const { return backoff_count_; }

  [[nodiscard]] bool has_sample() const { return has_sample_; }
  [[nodiscard]] Duration srtt() const { return srtt_; }
  [[nodiscard]] Duration rttvar() const { return rttvar_; }

 private:
  bool has_sample_ = false;
  Duration srtt_ = Duration::zero();
  Duration rttvar_ = Duration::zero();
  Duration base_rto_ = kInitialRto;
  int backoff_count_ = 0;
};

}  // namespace fobs::net

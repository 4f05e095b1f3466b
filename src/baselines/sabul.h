// SABUL baseline (Sivakumar, Mazzucco, Zhang, Grossman): a single
// rate-paced UDP data stream with a TCP control stream carrying
// periodic loss reports.
//
// The defining difference from FOBS (paper §2): SABUL interprets packet
// loss as congestion and reduces its sending rate, TCP-style, while
// FOBS assumes some loss is inevitable and stays greedy. On paths with
// non-congestive loss SABUL therefore underutilizes the pipe.
#pragma once

#include <cstdint>

#include "fobs/types.h"
#include "host/host.h"
#include "sim/node.h"

namespace fobs::baselines {

using fobs::host::Host;
using fobs::util::DataRate;
using fobs::util::Duration;

struct SabulConfig {
  fobs::core::TransferSpec spec;
  /// Initial pacing rate (the user's estimate of the available
  /// bandwidth, as in SABUL's configuration).
  DataRate initial_rate = DataRate::megabits_per_second(95);
};

struct SabulResult {
  bool completed = false;
  Duration elapsed = Duration::zero();
  double goodput_mbps = 0.0;
  std::int64_t packets_needed = 0;
  std::int64_t packets_sent = 0;
  double waste = 0.0;
  double final_rate_mbps = 0.0;  ///< pacing rate at completion
  std::uint64_t loss_reports = 0;

  [[nodiscard]] double fraction_of(DataRate max) const {
    if (max.is_zero()) return 0.0;
    return goodput_mbps * 1e6 / max.bps();
  }
};

SabulResult run_sabul_transfer(fobs::sim::Network& network, Host& src, Host& dst,
                               const SabulConfig& config);

}  // namespace fobs::baselines

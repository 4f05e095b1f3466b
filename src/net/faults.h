// Deterministic, seed-driven fault injection for FOBS transfers.
//
// A FaultPlan describes what should go wrong on each protocol channel
// (data, acknowledgement, control): random per-packet corruption /
// drops / duplication, a packet-indexed blackhole window, and a
// peer-crash point. The same plan drives both transports:
//  * the sim drivers consult a FaultInjector before every channel send
//    and mark payloads corrupted / swallow them / send them twice;
//  * the transfer engine parses a plan for each POSIX flow at submit,
//    from an options field or the FOBS_FAULT_PLAN environment variable,
//    and the flow sessions apply the identical data/ack/crash schedule
//    to real sockets. Nothing perturbs the POSIX control stream, so the
//    engine rejects a plan with a control.* schedule at submit.
// Decisions are drawn from per-channel RNG streams keyed off the plan
// seed, so a given (plan, channel, packet-index) always produces the
// same action regardless of how sends interleave across channels —
// which is what makes fault tests reproducible.
//
// Plan grammar (';'-separated items, see docs/ROBUSTNESS.md):
//   seed=<u64>
//   <chan>.corrupt=<prob>      chan in {data, ack, control}
//   <chan>.drop=<prob>
//   <chan>.dup=<prob>
//   <chan>.blackhole=<start>+<count>   drop packets [start, start+count)
//   crash=<n>                  endpoint dies after n data-channel packets
// Example: "seed=42;data.corrupt=0.01;ack.blackhole=8+16;crash=3000"
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "common/rng.h"

namespace fobs::net {

enum class FaultChannel : std::uint8_t { kData = 0, kAck = 1, kControl = 2 };
inline constexpr std::size_t kFaultChannelCount = 3;

[[nodiscard]] const char* to_string(FaultChannel channel);

/// What the injector decided for one packet on one channel.
enum class FaultAction : std::uint8_t { kPass, kDrop, kCorrupt, kDuplicate };

/// What an endpoint does with that packet: puts `copies` (0, 1 or 2)
/// of it on the wire, damaged when `corrupt`. A receiving endpoint
/// treats no copies as "never arrived" and takes a duplicate once.
struct FaultDecision {
  int copies = 1;
  bool corrupt = false;
};

/// Per-channel fault schedule. Probabilities are per packet and
/// mutually exclusive (corrupt is checked first, then drop, then dup).
struct ChannelFaults {
  double corrupt = 0.0;
  double drop = 0.0;
  double duplicate = 0.0;
  /// Packet-index blackhole: packets [blackhole_start,
  /// blackhole_start + blackhole_count) on this channel are dropped
  /// unconditionally. Negative start disables the window.
  std::int64_t blackhole_start = -1;
  std::int64_t blackhole_count = 0;

  [[nodiscard]] bool empty() const {
    return corrupt == 0.0 && drop == 0.0 && duplicate == 0.0 && blackhole_start < 0;
  }
};

struct FaultPlan {
  std::uint64_t seed = 1;
  ChannelFaults data;
  ChannelFaults ack;
  ChannelFaults control;
  /// The endpoint applying this plan "crashes" (abandons the transfer
  /// without cleanup) after this many data-channel packets. -1 = never.
  std::int64_t crash_at_packet = -1;

  [[nodiscard]] bool empty() const {
    return data.empty() && ack.empty() && control.empty() && crash_at_packet < 0;
  }

  [[nodiscard]] const ChannelFaults& channel(FaultChannel ch) const {
    switch (ch) {
      case FaultChannel::kData: return data;
      case FaultChannel::kAck: return ack;
      case FaultChannel::kControl: return control;
    }
    return data;
  }

  /// Parses the plan grammar above. Returns nullopt and fills `error`
  /// (when non-null) on malformed input. The empty string parses to an
  /// empty plan.
  static std::optional<FaultPlan> parse(std::string_view spec, std::string* error = nullptr);

  /// Round-trips through parse(): to_string() of a parsed plan parses
  /// back to an equivalent plan.
  [[nodiscard]] std::string to_string() const;
};

/// Per-channel injection counters (how much damage was actually done).
struct FaultStats {
  std::int64_t seen = 0;
  std::int64_t dropped = 0;     ///< random drops + blackholed
  std::int64_t corrupted = 0;
  std::int64_t duplicated = 0;
};

/// Stateful executor of one FaultPlan. One instance per transfer; each
/// channel keeps its own packet counter and RNG stream.
class FaultInjector {
 public:
  explicit FaultInjector(FaultPlan plan);

  /// Decides the fate of the next packet on `channel` and advances that
  /// channel's schedule.
  FaultAction next(FaultChannel channel);
  /// next(channel) as the endpoint's decision.
  FaultDecision decide(FaultChannel channel);

  /// True once the data-channel packet counter has reached the plan's
  /// crash point (the caller abandons the transfer when it sees this).
  [[nodiscard]] bool crash_due() const {
    return plan_.crash_at_packet >= 0 &&
           stats_[static_cast<std::size_t>(FaultChannel::kData)].seen >=
               plan_.crash_at_packet;
  }

  [[nodiscard]] const FaultPlan& plan() const { return plan_; }
  [[nodiscard]] const FaultStats& stats(FaultChannel channel) const {
    return stats_[static_cast<std::size_t>(channel)];
  }
  [[nodiscard]] std::int64_t total_injected() const;

 private:
  FaultPlan plan_;
  std::array<fobs::util::Rng, kFaultChannelCount> rngs_;
  std::array<FaultStats, kFaultChannelCount> stats_{};
};

}  // namespace fobs::net

// Simulated replicas of the paper's four Abilene testbed paths.
//
// Each testbed is a dumbbell:   S --nic--> R1 --backbone--> R2 --in--> D
// (and the mirror path for the reverse direction), with optional random
// loss and cross traffic on the backbone. The table in DESIGN.md maps
// each path to the paper's endpoints:
//   kShortHaul          ANL -> LCSE,  RTT ~26 ms, 100 Mb/s NIC bottleneck
//   kLongHaul           ANL -> CACR,  RTT ~65 ms, 100 Mb/s NIC bottleneck
//   kGigabitOc12        NCSA -> LCSE, RTT ~26 ms, GigE hosts, OC-12 path,
//                       slow per-datagram receive path (Figure 3)
//   kGigabitContended   NCSA -> CACR, RTT ~65 ms, GigE/OC-12 with heavy
//                       bursty cross traffic (Table 2)
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "host/host.h"
#include "sim/cross_traffic.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace fobs::exp {

using fobs::host::CpuModel;
using fobs::host::Host;
using fobs::sim::Duration;
using fobs::util::DataRate;

enum class PathId { kShortHaul, kLongHaul, kGigabitOc12, kGigabitContended };

[[nodiscard]] const char* to_string(PathId id);

/// The access links every testbed shares (no path varies them): the
/// source NIC's delay, the destination's ingress rate and delay, and
/// the queue of each of those four NIC links.
inline constexpr Duration kSrcNicDelay = Duration::microseconds(500);
inline constexpr DataRate kDstIngress = DataRate::gigabits_per_second(1);
inline constexpr Duration kDstIngressDelay = Duration::microseconds(500);
inline constexpr std::int64_t kNicQueueBytes = 256 * 1024;
/// Packet size of the backbone cross traffic.
inline constexpr std::int64_t kCrossPacketBytes = 1000;

/// Raw parameters of a testbed; edit to explore what-if scenarios.
struct TestbedSpec {
  std::string name;
  // Forward direction (data).
  DataRate src_nic = DataRate::megabits_per_second(100);
  DataRate backbone = DataRate::megabits_per_second(622);
  Duration backbone_delay = Duration::milliseconds(12);
  std::int64_t backbone_queue_bytes = 1024 * 1024;
  double fwd_loss = 0.0;  ///< per-fragment random loss on the backbone
  double rev_loss = 0.0;
  // Hosts.
  CpuModel src_cpu;
  CpuModel dst_cpu;
  // Cross traffic (on/off sources injected at the forward backbone link).
  int cross_sources = 0;
  DataRate cross_peak = DataRate::megabits_per_second(200);
  Duration cross_mean_on = Duration::milliseconds(50);
  Duration cross_mean_off = Duration::milliseconds(150);
  /// The denominator for "percentage of maximum available bandwidth".
  DataRate max_bandwidth = DataRate::megabits_per_second(100);

  [[nodiscard]] Duration one_way_delay() const {
    return kSrcNicDelay + backbone_delay + kDstIngressDelay;
  }
  [[nodiscard]] Duration rtt() const { return one_way_delay() * 2; }
};

/// Canonical parameters for each paper path.
[[nodiscard]] TestbedSpec spec_for(PathId id);

/// The calibrated end-system CPU models (shared with the Abilene
/// topology and the multi-flow benches).
[[nodiscard]] CpuModel desktop_pc_cpu();        ///< ANL/LCSE Pentium3 desktops
[[nodiscard]] CpuModel slow_gige_receiver_cpu();///< Figure 3 GigE endpoints
[[nodiscard]] CpuModel fast_server_cpu();       ///< Table 2 SMP servers

/// A fully built simulation: two endpoint hosts joined by the dumbbell,
/// cross traffic already started (if configured).
class Testbed {
 public:
  explicit Testbed(const TestbedSpec& spec, std::uint64_t seed = 42);
  Testbed(PathId id, std::uint64_t seed = 42) : Testbed(spec_for(id), seed) {}

  Testbed(const Testbed&) = delete;
  Testbed& operator=(const Testbed&) = delete;

  [[nodiscard]] fobs::sim::Simulation& sim() { return sim_; }
  [[nodiscard]] fobs::sim::Network& network() { return *network_; }
  [[nodiscard]] Host& src() { return *src_; }
  [[nodiscard]] Host& dst() { return *dst_; }
  [[nodiscard]] const TestbedSpec& spec() const { return spec_; }
  /// Forward bottleneck link (for queue/drop statistics).
  [[nodiscard]] fobs::sim::Link& backbone() { return *backbone_fwd_; }
  /// Cross-traffic sink (counts competing traffic actually delivered).
  [[nodiscard]] fobs::sim::BlackholeNode& cross_sink() { return *cross_sink_; }
  [[nodiscard]] const std::vector<std::unique_ptr<fobs::sim::OnOffSource>>&
  cross_sources() const {
    return cross_;
  }

 private:
  TestbedSpec spec_;
  fobs::sim::Simulation sim_;
  std::unique_ptr<fobs::sim::Network> network_;
  Host* src_ = nullptr;
  Host* dst_ = nullptr;
  fobs::sim::Link* backbone_fwd_ = nullptr;
  fobs::sim::BlackholeNode* cross_sink_ = nullptr;
  std::vector<std::unique_ptr<fobs::sim::OnOffSource>> cross_;
};

}  // namespace fobs::exp

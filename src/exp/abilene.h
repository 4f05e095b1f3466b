// The Abilene backbone (circa 2002) as a full multi-hop topology.
//
// The paper's dumbbell testbeds abstract the real network into a single
// bottleneck. This module builds the actual thing — the eleven Abilene
// core routers with their OC-48 links, the four measurement sites hung
// off them through access links, and delay-based shortest-path routing —
// so that the dumbbell reduction can be *validated*: a FOBS or TCP
// transfer across the routed backbone should match the corresponding
// dumbbell result (tests/test_abilene.cc, bench_ext_abilene).
//
// Geography is approximated; the access-link delays are tuned so the
// end-to-end RTTs match the paper's measurements (~26 ms ANL<->LCSE,
// ~65 ms ANL<->CACR).
#pragma once

#include <array>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "exp/testbeds.h"
#include "host/host.h"
#include "sim/cross_traffic.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace fobs::exp {

/// The eleven 2002 Abilene core nodes.
enum class AbilenePop : int {
  kSeattle = 0,
  kSunnyvale,
  kLosAngeles,
  kDenver,
  kKansasCity,
  kHouston,
  kIndianapolis,
  kAtlanta,
  kCleveland,
  kNewYork,
  kWashington,
};
inline constexpr int kAbilenePopCount = 11;

[[nodiscard]] const char* to_string(AbilenePop pop);

/// The paper's four measurement sites.
enum class Site { kAnl, kLcse, kCacr, kNcsa };
[[nodiscard]] const char* to_string(Site site);

struct SiteSpec {
  Site site;
  AbilenePop attachment;       ///< backbone PoP the site connects through
  DataRate nic;                ///< site NIC / campus egress rate
  Duration access_delay;       ///< one-way site<->PoP delay
  fobs::host::CpuModel cpu;
};

class AbileneNetwork {
 public:
  explicit AbileneNetwork(std::uint64_t seed = 42);

  AbileneNetwork(const AbileneNetwork&) = delete;
  AbileneNetwork& operator=(const AbileneNetwork&) = delete;

  [[nodiscard]] fobs::sim::Simulation& sim() { return sim_; }
  [[nodiscard]] fobs::sim::Network& network() { return *network_; }
  [[nodiscard]] fobs::host::Host& site_host(Site site);

  /// One-way propagation along the routed path (access + backbone).
  [[nodiscard]] Duration path_delay(Site a, Site b) const;
  /// Number of backbone hops between two sites' attachment points.
  [[nodiscard]] int backbone_hops(Site a, Site b) const;

  /// Starts `flows` on/off background flows between random PoP pairs,
  /// routed like real traffic (they share queues with the transfers).
  void add_background_traffic(int flows, DataRate peak, Duration mean_on, Duration mean_off);

  /// Uniform random loss on every backbone link (per fragment).
  void set_backbone_loss(double per_fragment_loss);

 private:
  struct PopLink {
    int a;
    int b;
    Duration delay;
  };

  void build_backbone(std::uint64_t seed);
  void attach_sites();
  void install_routes();
  [[nodiscard]] fobs::sim::Link* backbone_link(int from, int to);

  fobs::sim::Simulation sim_;
  std::unique_ptr<fobs::sim::Network> network_;
  fobs::util::Rng rng_;
  std::array<fobs::sim::Router*, kAbilenePopCount> pops_{};
  // links_[a][b] = link from PoP a to PoP b (nullptr when not adjacent)
  std::array<std::array<fobs::sim::Link*, kAbilenePopCount>, kAbilenePopCount> links_{};
  // Delay-based shortest paths: next_hop_[from][to] = next PoP index.
  std::array<std::array<int, kAbilenePopCount>, kAbilenePopCount> next_hop_{};
  std::array<std::array<Duration, kAbilenePopCount>, kAbilenePopCount> pop_delay_{};
  std::vector<SiteSpec> site_specs_;
  std::vector<fobs::host::Host*> site_hosts_;
  std::vector<fobs::sim::BlackholeNode*> pop_sinks_;
  std::vector<std::unique_ptr<fobs::sim::OnOffSource>> background_;
};

}  // namespace fobs::exp

// Extension: what happens when several greedy FOBS flows share one
// bottleneck?
//
// The paper's §7 concedes FOBS has no congestion control and that some
// form of it is needed "before the algorithm can become generally
// used". This bench quantifies the concern: N sender sites blast
// through one OC-12 at once. We report per-flow goodput, Jain's
// fairness index, aggregate utilization, and waste — for plain FOBS,
// for the adaptive (§7) variant, and for N TCP flows as the
// well-behaved reference.
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "sim/node.h"

namespace {

using namespace fobs;

/// N independent site pairs sharing one backbone:
///   S_i --1G--> R1 ==622 Mb/s== R2 --1G--> D_i   (and the mirror path)
struct MultiSiteWorld {
  sim::Simulation simulation;
  std::unique_ptr<sim::Network> network;
  std::vector<host::Host*> senders;
  std::vector<host::Host*> receivers;
  sim::Link* backbone = nullptr;

  explicit MultiSiteWorld(int flows) {
    network = std::make_unique<sim::Network>(simulation);
    auto& net = *network;

    host::CpuModel cpu;  // Table 2-era server: ~480 Mb/s UDP send path
    cpu.per_packet_send = util::Duration::microseconds(15);
    cpu.per_kb_send = util::Duration::microseconds(2);
    cpu.per_packet_recv = util::Duration::microseconds(10);
    cpu.per_kb_recv = util::Duration::microseconds(2);
    cpu.ack_build = util::Duration::microseconds(80);

    auto& r1 = net.add_router("r1");
    auto& r2 = net.add_router("r2");

    auto make_link = [&](const char* name, util::DataRate rate, util::Duration delay,
                         std::int64_t queue) -> sim::Link& {
      sim::LinkConfig cfg;
      cfg.name = name;
      cfg.rate = rate;
      cfg.propagation_delay = delay;
      cfg.queue_capacity_bytes = queue;
      return net.add_link(cfg);
    };

    auto& fwd = make_link("backbone-fwd", util::DataRate::megabits_per_second(622),
                          util::Duration::milliseconds(12), 4 * 1024 * 1024);
    auto& rev = make_link("backbone-rev", util::DataRate::megabits_per_second(622),
                          util::Duration::milliseconds(12), 4 * 1024 * 1024);
    fwd.set_sink(&r2);
    rev.set_sink(&r1);
    backbone = &fwd;

    for (int i = 0; i < flows; ++i) {
      // Names built by append: `"d" + std::to_string(i)` trips a false
      // -Wrestrict in GCC 12 at -O3.
      host::HostConfig s_cfg;
      s_cfg.name = std::string("s").append(std::to_string(i));
      s_cfg.cpu = cpu;
      host::HostConfig d_cfg;
      d_cfg.name = std::string("d").append(std::to_string(i));
      d_cfg.cpu = cpu;
      auto& s = host::Host::create(net, s_cfg);
      auto& d = host::Host::create(net, d_cfg);

      auto& s_nic = make_link(("s-nic" + std::to_string(i)).c_str(),
                              util::DataRate::gigabits_per_second(1),
                              util::Duration::microseconds(500), 256 * 1024);
      auto& d_in = make_link(("d-in" + std::to_string(i)).c_str(),
                             util::DataRate::gigabits_per_second(1),
                             util::Duration::microseconds(500), 256 * 1024);
      auto& d_nic = make_link(("d-nic" + std::to_string(i)).c_str(),
                              util::DataRate::gigabits_per_second(1),
                              util::Duration::microseconds(500), 256 * 1024);
      auto& s_in = make_link(("s-in" + std::to_string(i)).c_str(),
                             util::DataRate::gigabits_per_second(1),
                             util::Duration::microseconds(500), 256 * 1024);
      s_nic.set_sink(&r1);
      d_in.set_sink(&d);
      d_nic.set_sink(&r2);
      s_in.set_sink(&s);
      s.set_egress(&s_nic);
      d.set_egress(&d_nic);
      r1.add_route(d.id(), &fwd);
      r2.add_route(d.id(), &d_in);
      r2.add_route(s.id(), &rev);
      r1.add_route(s.id(), &s_in);
      senders.push_back(&s);
      receivers.push_back(&d);
    }
  }
};

double jain_index(const std::vector<double>& xs) {
  double sum = 0.0;
  double sum_sq = 0.0;
  for (double x : xs) {
    sum += x;
    sum_sq += x * x;
  }
  if (sum_sq == 0.0) return 0.0;
  return sum * sum / (static_cast<double>(xs.size()) * sum_sq);
}

struct FleetResult {
  std::vector<double> per_flow_mbps;
  double aggregate_fraction = 0.0;
  double mean_waste = 0.0;
};

FleetResult run_fobs_fleet(int flows, bool adaptive, std::int64_t object_bytes) {
  MultiSiteWorld world(flows);

  core::SimTransferConfig config;
  config.spec = {object_bytes, 1024};
  config.adaptive.enabled = adaptive;
  config.carry_data = false;
  std::vector<core::SimTransfer> transfers;
  for (int i = 0; i < flows; ++i) {
    transfers.push_back({*world.senders[static_cast<std::size_t>(i)],
                         *world.receivers[static_cast<std::size_t>(i)], config});
  }
  const auto runs = core::run_sim_transfers(*world.network, transfers);

  FleetResult result;
  double aggregate_bits = 0.0;
  double last_finish = 0.0;
  for (const auto& run : runs) {
    const double seconds = run.receiver_complete ? run.receiver_elapsed.seconds() : 0.0;
    const double mbps =
        seconds > 0 ? static_cast<double>(object_bytes) * 8.0 / seconds / 1e6 : 0.0;
    result.per_flow_mbps.push_back(mbps);
    aggregate_bits += static_cast<double>(object_bytes) * 8.0;
    last_finish = std::max(last_finish, seconds);
    result.mean_waste += run.waste;
  }
  result.mean_waste /= flows;
  if (last_finish > 0) {
    result.aggregate_fraction = aggregate_bits / last_finish / 622e6;
  }
  return result;
}

FleetResult run_tcp_fleet(int flows, std::int64_t object_bytes) {
  MultiSiteWorld world(flows);
  std::vector<baselines::TcpTransfer> transfers;
  for (int i = 0; i < flows; ++i) {
    transfers.push_back({*world.senders[static_cast<std::size_t>(i)],
                         *world.receivers[static_cast<std::size_t>(i)], object_bytes});
  }
  const auto run =
      baselines::run_tcp_transfers(*world.network, transfers, baselines::tcp_with_lwe());

  FleetResult result;
  double last_finish = 0.0;
  for (const auto elapsed : run.transfer_elapsed) {
    const double seconds = elapsed.seconds();
    const double mbps =
        seconds > 0 ? static_cast<double>(object_bytes) * 8.0 / seconds / 1e6 : 0.0;
    result.per_flow_mbps.push_back(mbps);
    last_finish = std::max(last_finish, seconds);
  }
  if (last_finish > 0) {
    result.aggregate_fraction =
        static_cast<double>(flows) * static_cast<double>(object_bytes) * 8.0 / last_finish /
        622e6;
  }
  result.mean_waste = -1.0;
  return result;
}

}  // namespace

int main() {
  const std::int64_t object_bytes = 40ll * 1024 * 1024;
  util::TextTable table({"flows", "variant", "aggregate util", "Jain fairness",
                         "min/max flow Mb/s", "mean waste"});
  std::printf("Multi-flow sharing of one OC-12 (each flow 40 MB):\n");

  for (int flows : {1, 2, 4}) {
    struct Row {
      const char* name;
      FleetResult result;
    };
    std::vector<Row> rows;
    rows.push_back({"FOBS greedy", run_fobs_fleet(flows, false, object_bytes)});
    rows.push_back({"FOBS adaptive", run_fobs_fleet(flows, true, object_bytes)});
    rows.push_back({"TCP+LWE", run_tcp_fleet(flows, object_bytes)});
    for (const auto& row : rows) {
      double lo = 1e18, hi = 0;
      for (double x : row.result.per_flow_mbps) {
        lo = std::min(lo, x);
        hi = std::max(hi, x);
      }
      table.add_row(
          {std::to_string(flows), row.name,
           util::TextTable::pct(row.result.aggregate_fraction),
           util::TextTable::num(jain_index(row.result.per_flow_mbps), 3),
           util::TextTable::num(lo, 0) + " / " + util::TextTable::num(hi, 0),
           row.result.mean_waste < 0 ? "-" : util::TextTable::pct(row.result.mean_waste)});
      std::printf(".");
      std::fflush(stdout);
    }
  }
  std::printf("\n");
  benchutil::emit(table, "Extension: N flows sharing one bottleneck");
  return 0;
}

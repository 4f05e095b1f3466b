#include "exp/testbeds.h"

#include <cassert>

namespace fobs::exp {

using fobs::sim::LinkConfig;
using fobs::util::Rng;

const char* to_string(PathId id) {
  switch (id) {
    case PathId::kShortHaul: return "short-haul (ANL->LCSE)";
    case PathId::kLongHaul: return "long-haul (ANL->CACR)";
    case PathId::kGigabitOc12: return "gigabit OC-12 (NCSA->LCSE)";
    case PathId::kGigabitContended: return "gigabit contended (NCSA->CACR)";
  }
  return "?";
}

CpuModel desktop_pc_cpu() {
  // Pentium3-era desktop: cheap per-datagram path relative to the
  // 100 Mb/s wire, but a noticeable stall to build + send a FOBS ACK.
  CpuModel cpu;
  cpu.per_packet_send = Duration::microseconds(6);
  cpu.per_kb_send = Duration::microseconds(2);
  cpu.per_packet_recv = Duration::microseconds(6);
  cpu.per_kb_recv = Duration::microseconds(2);
  cpu.ack_build = Duration::microseconds(150);
  return cpu;
}

CpuModel slow_gige_receiver_cpu() {
  // The Figure 3 endpoints (SGI Origin2000 / Windows 2000 box with GigE
  // NICs): the per-datagram syscall+copy path, not the wire, is the
  // bottleneck. The per-KB cost sets the large-packet asymptote at
  // ~52% of the OC-12.
  CpuModel cpu;
  cpu.per_packet_send = Duration::microseconds(15);
  cpu.per_kb_send = Duration::microseconds(4);
  cpu.per_packet_recv = Duration::microseconds(70);
  cpu.per_kb_recv = Duration::microseconds(19);
  cpu.ack_build = Duration::microseconds(100);
  return cpu;
}

CpuModel fast_server_cpu() {
  // Table 2 endpoints (Origin2000, HP V2500): faster than the Figure 3
  // machines, but the user-level per-datagram send path still caps a
  // single UDP blaster below the OC-12 (~480 Mb/s at 1 KiB packets).
  // That cap is what keeps FOBS's greedy waste at the paper's ~2%: the
  // sender physically cannot overdrive the path by much.
  CpuModel cpu;
  cpu.per_packet_send = Duration::microseconds(15);
  cpu.per_kb_send = Duration::microseconds(2);
  cpu.per_packet_recv = Duration::microseconds(10);
  cpu.per_kb_recv = Duration::microseconds(2);
  cpu.ack_build = Duration::microseconds(80);
  return cpu;
}

TestbedSpec spec_for(PathId id) {
  TestbedSpec spec;
  // Built as a std::string first: assigning the const char* directly
  // trips a false -Wrestrict in GCC 12 at -O3.
  spec.name = std::string(to_string(id));
  switch (id) {
    case PathId::kShortHaul:
      // RTT ~26 ms; bottleneck = 100 Mb/s NIC at ANL; clean path.
      spec.src_nic = DataRate::megabits_per_second(100);
      spec.backbone_delay = Duration::milliseconds(12);
      spec.fwd_loss = 1e-6;
      spec.rev_loss = 1e-6;
      spec.src_cpu = desktop_pc_cpu();
      spec.dst_cpu = desktop_pc_cpu();
      spec.max_bandwidth = DataRate::megabits_per_second(100);
      break;
    case PathId::kLongHaul:
      // RTT ~65 ms; same NIC bottleneck; light random loss from shared
      // Abilene segments — enough to trip TCP's congestion control,
      // negligible for a loss-tolerant protocol.
      spec.src_nic = DataRate::megabits_per_second(100);
      spec.backbone_delay = Duration::milliseconds(31500) / 1000;  // 31.5 ms
      spec.fwd_loss = 9e-5;  // calibrated so TCP+LWE averages ~51% (Table 1)
      spec.rev_loss = 2e-6;
      spec.src_cpu = desktop_pc_cpu();
      spec.dst_cpu = desktop_pc_cpu();
      spec.max_bandwidth = DataRate::megabits_per_second(100);
      break;
    case PathId::kGigabitOc12:
      // GigE endpoints, OC-12 backbone; the receive path CPU dominates.
      spec.src_nic = DataRate::gigabits_per_second(1);
      spec.backbone = DataRate::megabits_per_second(622);
      spec.backbone_delay = Duration::milliseconds(12);
      spec.fwd_loss = 1e-6;
      spec.rev_loss = 1e-6;
      spec.src_cpu = slow_gige_receiver_cpu();
      spec.dst_cpu = slow_gige_receiver_cpu();
      spec.max_bandwidth = DataRate::megabits_per_second(622);
      break;
    case PathId::kGigabitContended:
      // Long RTT, OC-12 bottleneck shared with heavy bursty traffic.
      spec.src_nic = DataRate::gigabits_per_second(1);
      spec.backbone = DataRate::megabits_per_second(622);
      spec.backbone_delay = Duration::milliseconds(31500) / 1000;
      spec.fwd_loss = 1e-5;
      spec.rev_loss = 2e-6;
      spec.src_cpu = fast_server_cpu();
      spec.dst_cpu = fast_server_cpu();
      spec.cross_sources = 5;
      spec.cross_peak = DataRate::megabits_per_second(100);
      spec.cross_mean_on = Duration::milliseconds(40);
      spec.cross_mean_off = Duration::milliseconds(160);
      spec.backbone_queue_bytes = 4 * 1024 * 1024;
      spec.max_bandwidth = DataRate::megabits_per_second(622);
      break;
  }
  return spec;
}

Testbed::Testbed(const TestbedSpec& spec, std::uint64_t seed) : spec_(spec) {
  network_ = std::make_unique<fobs::sim::Network>(sim_);
  auto& net = *network_;
  Rng rng(seed);

  fobs::host::HostConfig src_cfg;
  src_cfg.name = "src";
  src_cfg.cpu = spec.src_cpu;
  fobs::host::HostConfig dst_cfg;
  dst_cfg.name = "dst";
  dst_cfg.cpu = spec.dst_cpu;
  src_ = &Host::create(net, src_cfg);
  dst_ = &Host::create(net, dst_cfg);

  auto& r1 = net.add_router("r1");
  auto& r2 = net.add_router("r2");
  auto& blackhole = net.add_blackhole("cross-sink");

  auto make_link = [&](const char* name, DataRate rate, Duration delay,
                       std::int64_t queue) -> fobs::sim::Link& {
    LinkConfig cfg;
    cfg.name = name;
    cfg.rate = rate;
    cfg.propagation_delay = delay;
    cfg.queue_capacity_bytes = queue;
    return net.add_link(cfg);
  };

  // Forward path: src -> r1 -> r2 -> dst.
  auto& l_src = make_link("src-nic", spec.src_nic, kSrcNicDelay, kNicQueueBytes);
  auto& l_fwd =
      make_link("backbone-fwd", spec.backbone, spec.backbone_delay, spec.backbone_queue_bytes);
  auto& l_in = make_link("dst-ingress", kDstIngress, kDstIngressDelay, kNicQueueBytes);
  l_src.set_sink(&r1);
  l_fwd.set_sink(&r2);
  l_in.set_sink(dst_);
  if (spec.fwd_loss > 0) {
    l_fwd.set_loss_model(std::make_unique<fobs::sim::BernoulliLoss>(spec.fwd_loss), rng.fork());
  }

  // Reverse path: dst -> r2 -> r1 -> src (ACKs and TCP control/acks).
  auto& l_dst = make_link("dst-nic", kDstIngress, kDstIngressDelay, kNicQueueBytes);
  auto& l_rev =
      make_link("backbone-rev", spec.backbone, spec.backbone_delay, spec.backbone_queue_bytes);
  auto& l_out = make_link("src-ingress", spec.src_nic, kSrcNicDelay, kNicQueueBytes);
  l_dst.set_sink(&r2);
  l_rev.set_sink(&r1);
  l_out.set_sink(src_);
  if (spec.rev_loss > 0) {
    l_rev.set_loss_model(std::make_unique<fobs::sim::BernoulliLoss>(spec.rev_loss), rng.fork());
  }

  src_->set_egress(&l_src);
  dst_->set_egress(&l_dst);

  r1.add_route(dst_->id(), &l_fwd);
  r1.add_route(blackhole.id(), &l_fwd);
  r1.add_route(src_->id(), &l_out);
  r2.add_route(dst_->id(), &l_in);
  r2.add_route(src_->id(), &l_rev);
  r2.add_route(blackhole.id(), &blackhole);

  backbone_fwd_ = &l_fwd;
  cross_sink_ = &blackhole;

  // Cross traffic competes for the forward backbone queue.
  for (int i = 0; i < spec.cross_sources; ++i) {
    auto src_node = net.next_node_id();  // phantom source id
    auto source = std::make_unique<fobs::sim::OnOffSource>(
        sim_, l_fwd, src_node, blackhole.id(), kCrossPacketBytes, spec.cross_peak,
        spec.cross_mean_on, spec.cross_mean_off, rng.fork());
    source->start();
    cross_.push_back(std::move(source));
  }
}

}  // namespace fobs::exp

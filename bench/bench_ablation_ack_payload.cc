// Ablation: acknowledgement packet size (bitmap fragment density).
//
// The paper notes the receiver can track state with "one byte (or even
// one bit) allocated per data packet"; the bit representation is 8x
// denser, so one ACK refreshes 8x more of the sender's view. This
// sweep varies how much bitmap one ACK can carry: small ACKs leave the
// sender's view stale (it retransmits blind), large ones keep it sharp.
// Run on a lossy long haul where the view actually matters.
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "exp/runner.h"
#include "fobs/sim_transfer.h"

int main() {
  using namespace fobs;
  const auto seeds = exp::default_seeds(benchutil::seed_count_from_env());

  auto spec = exp::spec_for(exp::PathId::kLongHaul);
  spec.fwd_loss = 5e-4;  // enough loss that stale views cost real waste

  // 40 MB / 1 KiB = 40960 packets. An ACK with payload P carries about
  // (P-32)*8 bits of bitmap: at 64 B that is 256 packets per ACK, at
  // 4 KiB the whole object fits in ~1.3 ACKs.
  const std::vector<std::int64_t> payloads = {64, 128, 256, 1024, 4096};

  util::TextTable table({"ack payload", "packets / fragment", "% max bw", "waste"});
  std::printf("ACK payload ablation: lossy long haul, ack frequency 64, %zu seed(s)/row\n",
              seeds.size());

  for (std::int64_t payload : payloads) {
    const auto avg = exp::average_over_seeds(spec, seeds, [&](std::uint64_t seed) {
      exp::Testbed bed(spec, seed);
      core::SimTransferConfig config;
      config.spec.object_bytes = exp::kPaperObjectBytes;
      config.receiver.ack_frequency = 64;
      config.receiver.ack_payload_bytes = payload;
      return core::run_sim_transfer(bed.network(), bed.src(), bed.dst(), config);
    });
    const std::int64_t coverage = (payload - core::kAckHeaderBytes) * 8;
    table.add_row({std::to_string(payload) + " B", std::to_string(std::max<std::int64_t>(coverage, 0)),
                   util::TextTable::pct(avg.fraction), util::TextTable::pct(avg.waste)});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n");
  benchutil::emit(table, "Ablation: acknowledgement payload size (view freshness)");
  return 0;
}

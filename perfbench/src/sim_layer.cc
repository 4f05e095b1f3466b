// The simulator layer, measured in the fetch workloads' traced runs:
// exp::run_fobs at the workload's geometry. No sockets: the simulator,
// the host model and the shared sans-io cores do all the work. Every run
// must complete, and the runs' digest is printed, so a change that alters
// protocol behaviour shows.
#include <cstdio>
#include <string>
#include <vector>

#include "exp/runner.h"
#include "workloads.h"

namespace perfbench {

namespace {

/// Seeds per pass; both passes run the same seeds and must agree.
constexpr int kSimSeeds = 3;
constexpr int kSimPasses = 2;

/// FNV-1a over each run's (packets_sent, acks_sent, receiver_elapsed):
/// a change that alters protocol behaviour changes the digest.
class Digest {
 public:
  void add(const fobs::core::SimTransferResult& result) {
    mix(result.packets_sent);
    mix(static_cast<std::int64_t>(result.acks_sent));
    mix(result.receiver_elapsed.ns());
  }
  [[nodiscard]] std::string hex() const {
    char text[17];
    std::snprintf(text, sizeof text, "%016llx", static_cast<unsigned long long>(hash_));
    return text;
  }

 private:
  void mix(std::int64_t value) {
    for (int i = 0; i < 8; ++i) {
      hash_ ^= (static_cast<std::uint64_t>(value) >> (8 * i)) & 0xFF;
      hash_ *= 0x100000001b3ull;
    }
  }
  std::uint64_t hash_ = 0xcbf29ce484222325ull;
};

}  // namespace

void measure_sim_layer(const FetchGeometry& geometry, std::uint64_t seed, SpanLog& spans,
                       std::uint64_t parent, Report& report) {
  fobs::exp::FobsRunParams params;  // B = 2, ack frequency 64
  params.object_bytes = geometry.object_bytes;
  params.packet_bytes = geometry.packet_bytes;
  const fobs::exp::TestbedSpec spec = fobs::exp::spec_for(fobs::exp::PathId::kShortHaul);
  std::vector<double> wall_ms;
  double wall_s = 0.0;
  double packets = 0.0;
  std::string first_digest;
  for (int pass = 0; pass < kSimPasses; ++pass) {
    Digest digest;
    for (int i = 0; i < kSimSeeds; ++i) {
      fobs::core::SimTransferResult result;
      double run_s = 0.0;
      {
        const SpanScope span(spans, "run_fobs", parent, pass * kSimSeeds + i);
        const auto start = Clock::now();
        result = fobs::exp::run_fobs(spec, params, seed + static_cast<std::uint64_t>(i));
        run_s = seconds_since(start);
      }
      ++report.attempted;
      digest.add(result);
      if (!result.completed) {
        report.fail("sim_incomplete");
        continue;
      }
      wall_ms.push_back(run_s * 1e3);
      wall_s += run_s;
      packets +=
          static_cast<double>(result.packets_sent) + static_cast<double>(result.acks_sent);
    }
    if (pass == 0) {
      first_digest = digest.hex();
    } else if (digest.hex() != first_digest) {
      report.fail("sim_nondeterministic");
    }
  }
  report.note("sim_digest", first_digest);
  if (wall_ms.empty()) return;
  report.metric("sim.run_ms_p50", median(wall_ms), "ms");
  report.metric("sim.pkts_per_s", packets / wall_s, "1/s");
}

}  // namespace perfbench

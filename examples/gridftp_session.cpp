// A gridftp-style session: staging a whole dataset manifest — many
// files of very different sizes — across a wide-area path.
//
// This is the workload PSockets and grid-ftp were built for (paper §2):
// lots of bulk objects, one after another. Small files are dominated by
// per-transfer latency (handshakes, first ACK round trips), large ones
// by sustained throughput, so the protocols rank differently across the
// manifest.
//
//   ./gridftp_session [short|long|contended]
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "baselines/tcp_bulk.h"
#include "exp/runner.h"

namespace {

struct ManifestEntry {
  const char* name;
  std::int64_t bytes;
};

// A plausible simulation-output dataset: metadata, a few checkpoint
// slices, and two big field dumps.
constexpr ManifestEntry kManifest[] = {
    {"run_config.xml", 48 * 1024},
    {"provenance.log", 220 * 1024},
    {"checkpoint_000.h5", 6 * 1024 * 1024},
    {"checkpoint_001.h5", 6 * 1024 * 1024},
    {"checkpoint_002.h5", 6 * 1024 * 1024},
    {"field_pressure.raw", 64 * 1024 * 1024},
    {"field_velocity.raw", 96 * 1024 * 1024},
};

}  // namespace

int main(int argc, char** argv) {
  using namespace fobs;

  exp::PathId path = exp::PathId::kLongHaul;
  if (argc > 1) {
    const std::string arg = argv[1];
    if (arg == "short") path = exp::PathId::kShortHaul;
    else if (arg == "contended") path = exp::PathId::kGigabitContended;
  }
  const auto spec = exp::spec_for(path);

  std::int64_t total_bytes = 0;
  for (const auto& entry : kManifest) total_bytes += entry.bytes;
  std::printf("Staging %zu files (%.1f MB total) over %s\n",
              std::size(kManifest), static_cast<double>(total_bytes) / (1024.0 * 1024.0),
              spec.name.c_str());
  std::printf("%-22s %12s %14s %14s\n", "file", "size", "FOBS", "TCP+LWE");

  double fobs_total_s = 0.0;
  double tcp_total_s = 0.0;
  for (const auto& entry : kManifest) {
    exp::FobsRunParams params;
    params.object_bytes = entry.bytes;
    const auto fobs_result = exp::run_fobs(spec, params);
    const double fobs_s = fobs_result.completed
                              ? fobs_result.sender_elapsed.seconds()
                              : -1.0;

    exp::Testbed bed(spec);
    const auto tcp = baselines::run_tcp_transfers(
        bed.network(), {{bed.src(), bed.dst(), entry.bytes}}, baselines::tcp_with_lwe());
    const double tcp_s = tcp.completed ? tcp.elapsed.seconds() : -1.0;

    fobs_total_s += fobs_s;
    tcp_total_s += tcp_s;
    std::printf("%-22s %9.1f MB %11.2f s %11.2f s\n", entry.name,
                static_cast<double>(entry.bytes) / (1024.0 * 1024.0), fobs_s, tcp_s);
  }

  std::printf("%-22s %12s %11.2f s %11.2f s\n", "TOTAL", "", fobs_total_s, tcp_total_s);
  if (fobs_total_s > 0) {
    std::printf("\nSession speedup from FOBS: %.2fx\n", tcp_total_s / fobs_total_s);
  }
  std::printf("(FOBS times include the completion-signal round trip; per-file\n"
              " transfers run back to back like a gridftp session.)\n");
  return 0;
}

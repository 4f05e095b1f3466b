// simctl — run any protocol over any paper path from the command line.
//
//   simctl --path long --protocol fobs --mb 40 --ack-freq 64
//   simctl --path contended --protocol psockets --streams 20
//   simctl --path gigabit --protocol fobs --packet 8192
//   simctl --path short --protocol tcp --no-lwe
//
// Flags:
//   --path short|long|gigabit|contended    (default long)
//   --protocol fobs|tcp|psockets|rudp|sabul (default fobs)
//   --mb N           object size in MiB (default 40)
//   --packet N       FOBS packet size in bytes (default 1024)
//   --ack-freq N     FOBS acknowledgement frequency (default 64)
//   --batch N        FOBS batch size (default 2)
//   --streams N      PSockets stream count (default 16)
//   --adaptive       enable the §7 greediness controller
//   --tcp-fallback   enable the §7 TCP fallback (implies --adaptive)
//   --no-lwe         TCP without window scaling (64 KiB window)
//   --seed N         simulation seed (default 42)
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "exp/runner.h"

namespace {

struct Options {
  std::string path = "long";
  std::string protocol = "fobs";
  std::int64_t mb = 40;
  std::int64_t packet = 1024;
  std::int64_t ack_freq = 64;
  int batch = 2;
  int streams = 16;
  bool adaptive = false;
  bool tcp_fallback = false;
  bool no_lwe = false;
  std::uint64_t seed = 42;
};

bool parse(int argc, char** argv, Options& options) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return i + 1 < argc ? argv[++i] : nullptr; };
    if (arg == "--path") {
      const char* v = next();
      if (!v) return false;
      options.path = v;
    } else if (arg == "--protocol") {
      const char* v = next();
      if (!v) return false;
      options.protocol = v;
    } else if (arg == "--mb") {
      options.mb = std::atoll(next());
    } else if (arg == "--packet") {
      options.packet = std::atoll(next());
    } else if (arg == "--ack-freq") {
      options.ack_freq = std::atoll(next());
    } else if (arg == "--batch") {
      options.batch = std::atoi(next());
    } else if (arg == "--streams") {
      options.streams = std::atoi(next());
    } else if (arg == "--adaptive") {
      options.adaptive = true;
    } else if (arg == "--tcp-fallback") {
      options.adaptive = true;
      options.tcp_fallback = true;
    } else if (arg == "--no-lwe") {
      options.no_lwe = true;
    } else if (arg == "--seed") {
      options.seed = static_cast<std::uint64_t>(std::atoll(next()));
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fobs;
  Options options;
  if (!parse(argc, argv, options)) {
    std::fprintf(stderr, "see the header of examples/simctl.cpp for usage\n");
    return 2;
  }

  exp::PathId path;
  if (options.path == "short") path = exp::PathId::kShortHaul;
  else if (options.path == "long") path = exp::PathId::kLongHaul;
  else if (options.path == "gigabit") path = exp::PathId::kGigabitOc12;
  else if (options.path == "contended") path = exp::PathId::kGigabitContended;
  else {
    std::fprintf(stderr, "unknown path: %s\n", options.path.c_str());
    return 2;
  }
  const auto spec = exp::spec_for(path);
  const std::int64_t bytes = options.mb * 1024 * 1024;

  std::printf("%s over %s: %lld MiB, seed %llu\n", options.protocol.c_str(),
              spec.name.c_str(), static_cast<long long>(options.mb),
              static_cast<unsigned long long>(options.seed));

  if (options.protocol == "fobs") {
    exp::FobsRunParams params;
    params.object_bytes = bytes;
    params.packet_bytes = options.packet;
    params.ack_frequency = options.ack_freq;
    params.batch_size = options.batch;
    params.adaptive.enabled = options.adaptive;
    params.adaptive.tcp_fallback = options.tcp_fallback;
    const auto result = exp::run_fobs(spec, params, options.seed);
    std::printf("completed=%s  goodput=%.1f Mb/s (%.1f%% of max)  waste=%.2f%%  time=%.2fs\n",
                result.completed ? "yes" : "NO", result.goodput_mbps,
                100 * result.fraction_of(spec.max_bandwidth), 100 * result.waste,
                result.receiver_elapsed.seconds());
    return result.completed ? 0 : 1;
  }
  if (options.protocol == "tcp") {
    const auto config =
        options.no_lwe ? baselines::tcp_without_lwe() : baselines::tcp_with_lwe();
    const auto result = exp::run_tcp_averaged(spec, bytes, config, {options.seed});
    std::printf("completed=%s  goodput=%.1f Mb/s (%.1f%% of max)  rtx=%llu timeouts=%llu\n",
                result.completed_runs > 0 ? "yes" : "NO", result.goodput_mbps,
                100 * result.fraction, static_cast<unsigned long long>(result.retransmissions),
                static_cast<unsigned long long>(result.timeouts));
    return result.completed_runs > 0 ? 0 : 1;
  }
  if (options.protocol == "psockets") {
    const auto result = exp::run_tcp(spec, bytes, baselines::psockets_stream_config(),
                                     options.streams, options.seed);
    std::printf("completed=%s  streams=%d  goodput=%.1f Mb/s (%.1f%% of max)  rtx=%llu\n",
                result.completed ? "yes" : "NO", options.streams, result.goodput_mbps,
                100 * result.fraction_of(spec.max_bandwidth),
                static_cast<unsigned long long>(result.retransmissions));
    return result.completed ? 0 : 1;
  }
  if (options.protocol == "rudp") {
    baselines::RudpConfig config;
    config.spec = {bytes, options.packet};
    const auto result = exp::run_rudp(spec, config, options.seed);
    std::printf("completed=%s  goodput=%.1f Mb/s (%.1f%% of max)  passes=%d  waste=%.2f%%\n",
                result.completed ? "yes" : "NO", result.goodput_mbps,
                100 * result.fraction_of(spec.max_bandwidth), result.passes,
                100 * result.waste);
    return result.completed ? 0 : 1;
  }
  if (options.protocol == "sabul") {
    baselines::SabulConfig config;
    config.spec = {bytes, options.packet};
    config.initial_rate = spec.max_bandwidth * 0.95;
    const auto result = exp::run_sabul(spec, config, options.seed);
    std::printf(
        "completed=%s  goodput=%.1f Mb/s (%.1f%% of max)  final rate=%.0f Mb/s  waste=%.2f%%\n",
        result.completed ? "yes" : "NO", result.goodput_mbps,
        100 * result.fraction_of(spec.max_bandwidth), result.final_rate_mbps,
        100 * result.waste);
    return result.completed ? 0 : 1;
  }
  std::fprintf(stderr, "unknown protocol: %s\n", options.protocol.c_str());
  return 2;
}

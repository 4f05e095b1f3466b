// simctl — run any protocol over any paper path from the command line.
//
//   simctl --path long --protocol fobs --mb 40 --ack-freq 64
//   simctl --path contended --protocol psockets --streams 20
//   simctl --path gigabit --protocol fobs --packet 8192
//   simctl --path short --protocol tcp --no-lwe
//   simctl --path long --protocol all        # the protocol shootout
//
// Flags:
//   --path short|long|gigabit|contended          (default long)
//   --protocol fobs|tcp|psockets|rudp|sabul|all  (default fobs)
//   --mb N           object size in MiB, 1..1048576 (default 40)
//   --packet N       FOBS/RUDP/SABUL packet size in bytes, 1..65487 (default 1024)
//   --ack-freq N     FOBS acknowledgement frequency (default 64)
//   --batch N        FOBS batch size (default 2)
//   --streams N      PSockets stream count, 1..1024 (default 16)
//   --adaptive       enable the §7 greediness controller
//   --tcp-fallback   enable the §7 TCP fallback (implies --adaptive)
//   --no-lwe         TCP without window scaling (64 KiB window)
//   --seed N         simulation seed, >= 0 (default 42)
//
// A protocol prints one table row (done, % of max bandwidth, goodput,
// elapsed, notes). `--protocol all` runs the same per-protocol code for
// eight rows: FOBS, RUDP, SABUL, PSockets-1/8/16, TCP+LWE and TCP with
// a 64 KiB window (it sets --streams and --no-lwe itself). Exit code:
// 0 when every row completed, 1 when one did not, 2 for a bad flag.
#include <algorithm>
#include <cerrno>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/table.h"
#include "exp/runner.h"
#include "fobs/posix/codec.h"

namespace {

using fobs::util::TextTable;

struct Options {
  std::string path = "long";
  std::string protocol = "fobs";
  std::int64_t mb = 40;
  std::int64_t packet = 1024;
  std::int64_t ack_freq = 64;
  std::int64_t batch = 2;
  std::int64_t streams = 16;
  bool adaptive = false;
  bool tcp_fallback = false;
  bool no_lwe = false;
  std::int64_t seed = 42;
};

struct Row {
  std::string protocol;
  bool completed;
  double fraction, goodput_mbps, elapsed_s;
  std::string notes;
};

std::int64_t object_bytes(const Options& o) { return o.mb * 1024 * 1024; }
std::uint64_t seed_of(const Options& o) { return static_cast<std::uint64_t>(o.seed); }

Row fobs_row(const fobs::exp::TestbedSpec& spec, const Options& o) {
  fobs::exp::FobsRunParams params;
  params.object_bytes = object_bytes(o);
  params.packet_bytes = o.packet;
  params.ack_frequency = o.ack_freq;
  params.batch_size = static_cast<int>(o.batch);
  params.adaptive.enabled = o.adaptive;
  params.adaptive.tcp_fallback = o.tcp_fallback;
  const auto r = fobs::exp::run_fobs(spec, params, seed_of(o));
  return {"FOBS", r.completed, r.fraction_of(spec.max_bandwidth), r.goodput_mbps,
          r.receiver_elapsed.seconds(), "waste " + TextTable::pct(r.waste, 2)};
}

Row rudp_row(const fobs::exp::TestbedSpec& spec, const Options& o) {
  fobs::baselines::RudpConfig config;
  config.spec = {object_bytes(o), o.packet};
  const auto r = fobs::exp::run_rudp(spec, config, seed_of(o));
  return {"RUDP", r.completed, r.fraction_of(spec.max_bandwidth), r.goodput_mbps,
          r.elapsed.seconds(),
          std::to_string(r.passes) + " blast passes, waste " + TextTable::pct(r.waste, 2)};
}

Row sabul_row(const fobs::exp::TestbedSpec& spec, const Options& o) {
  fobs::baselines::SabulConfig config;
  config.spec = {object_bytes(o), o.packet};
  config.initial_rate = spec.max_bandwidth * 0.95;
  const auto r = fobs::exp::run_sabul(spec, config, seed_of(o));
  return {"SABUL", r.completed, r.fraction_of(spec.max_bandwidth), r.goodput_mbps,
          r.elapsed.seconds(),
          std::to_string(r.loss_reports) + " loss reports, final rate " +
              TextTable::num(r.final_rate_mbps, 0) + " Mb/s"};
}

Row tcp_run_row(const fobs::exp::TestbedSpec& spec, const Options& o, std::string name,
                const fobs::net::TcpConfig& config, int streams) {
  const auto r = fobs::exp::run_tcp(spec, object_bytes(o), config, streams, seed_of(o));
  return {std::move(name), r.completed, r.fraction_of(spec.max_bandwidth), r.goodput_mbps,
          r.elapsed.seconds(),
          std::to_string(r.retransmissions) + " rtx, " + std::to_string(r.timeouts) + " RTOs"};
}

Row psockets_row(const fobs::exp::TestbedSpec& spec, const Options& o) {
  return tcp_run_row(spec, o, "PSockets-" + std::to_string(o.streams),
                     fobs::baselines::psockets_stream_config(), static_cast<int>(o.streams));
}

Row tcp_row(const fobs::exp::TestbedSpec& spec, const Options& o) {
  return o.no_lwe ? tcp_run_row(spec, o, "TCP (64K wnd)", fobs::baselines::tcp_without_lwe(), 1)
                  : tcp_run_row(spec, o, "TCP+LWE", fobs::baselines::tcp_with_lwe(), 1);
}

using RowFn = Row (*)(const fobs::exp::TestbedSpec&, const Options&);
const std::map<std::string, RowFn> kProtocols = {
    {"fobs", fobs_row}, {"rudp", rudp_row},         {"sabul", sabul_row},
    {"tcp", tcp_row},   {"psockets", psockets_row},
};

using fobs::exp::PathId;
const std::map<std::string, PathId> kPaths = {
    {"short", PathId::kShortHaul}, {"long", PathId::kLongHaul},
    {"gigabit", PathId::kGigabitOc12}, {"contended", PathId::kGigabitContended}};

/// The runs `--protocol` names: one, or the eight rows of `all`.
std::vector<Options> runs_for(const Options& options) {
  if (options.protocol != "all") return {options};
  auto with = [&](const char* protocol, std::int64_t streams = 1, bool no_lwe = false) {
    Options run = options;
    run.protocol = protocol;
    run.streams = streams;
    run.no_lwe = no_lwe;
    return run;
  };
  return {with("fobs"),        with("rudp"),        with("sabul"),
          with("psockets", 1), with("psockets", 8), with("psockets", 16),
          with("tcp"),         with("tcp", 1, true)};
}

/// A whole decimal integer in [min, max]; false for a missing,
/// non-numeric or out-of-range value.
bool read_int(const char* text, std::int64_t min, std::int64_t max, std::int64_t& out) {
  char* end = nullptr;  // stays equal to a missing (null) text
  errno = 0;
  const long long value = text == nullptr ? 0 : std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min || value > max) {
    return false;
  }
  out = value;
  return true;
}

bool parse(int argc, char** argv, Options& options) {
  struct NumericFlag {
    const char* name;
    std::int64_t min;
    std::int64_t max;
    std::int64_t* value;
  };
  const NumericFlag numeric[] = {
      {"--mb", 1, 1 << 20, &options.mb},
      {"--packet", 1, fobs::posix::kMaxPacketBytes, &options.packet},
      {"--ack-freq", 1, INT32_MAX, &options.ack_freq},
      {"--batch", 1, INT32_MAX, &options.batch},
      {"--streams", 1, 1024, &options.streams},
      {"--seed", 0, INT64_MAX, &options.seed},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto flag = std::find_if(std::begin(numeric), std::end(numeric),
                                   [&](const NumericFlag& f) { return arg == f.name; });
    if (flag != std::end(numeric)) {
      if (!read_int(value, flag->min, flag->max, *flag->value)) {
        std::fprintf(stderr, "%s needs an integer in [%lld, %lld]\n", flag->name,
                     static_cast<long long>(flag->min), static_cast<long long>(flag->max));
        return false;
      }
      ++i;
    } else if (arg == "--path" || arg == "--protocol") {
      if (value == nullptr) return false;
      (arg == "--path" ? options.path : options.protocol) = value;
      ++i;
    } else if (arg == "--adaptive") {
      options.adaptive = true;
    } else if (arg == "--tcp-fallback") {
      options.adaptive = true;
      options.tcp_fallback = true;
    } else if (arg == "--no-lwe") {
      options.no_lwe = true;
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", arg.c_str());
      return false;
    }
  }
  if (kPaths.count(options.path) == 0 ||
      (options.protocol != "all" && kProtocols.count(options.protocol) == 0)) {
    std::fprintf(stderr, "unknown path '%s' or protocol '%s'\n", options.path.c_str(),
                 options.protocol.c_str());
    return false;
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

  const auto spec = exp::spec_for(kPaths.at(options.path));
  std::printf("%s over %s (max %.0f Mb/s, RTT %.0f ms): %lld MiB, seed %lld\n",
              options.protocol.c_str(), spec.name.c_str(), spec.max_bandwidth.mbps(),
              spec.rtt().seconds() * 1e3, static_cast<long long>(options.mb),
              static_cast<long long>(options.seed));
  TextTable table({"protocol", "done", "% max bw", "goodput", "elapsed", "notes"});
  bool all_completed = true;
  for (const Options& run : runs_for(options)) {
    const Row row = kProtocols.at(run.protocol)(spec, run);
    table.add_row({row.protocol, row.completed ? "yes" : "NO", TextTable::pct(row.fraction),
                   TextTable::num(row.goodput_mbps, 1) + " Mb/s",
                   TextTable::num(row.elapsed_s, 2) + " s", row.notes});
    all_completed = all_completed && row.completed;
  }
  table.print(std::cout);
  return all_completed ? 0 : 1;
}

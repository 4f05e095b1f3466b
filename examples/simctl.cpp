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
// elapsed, notes) from exp::run_protocol on a fresh testbed. `--protocol
// all` runs it for eight rows: FOBS, RUDP, SABUL, PSockets-1/8/16,
// TCP+LWE and TCP with a 64 KiB window (it sets --streams and --no-lwe
// itself). Exit code: 0 when every row completed, 1 when one did not,
// 2 for a bad flag.
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <iostream>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "args.h"
#include "common/table.h"
#include "exp/runner.h"
#include "fobs/posix/codec.h"

namespace {

using fobs::exp::Protocol;
using fobs::exp::ProtocolKnobs;
using fobs::util::TextTable;

struct Options {
  std::string path = "long";
  std::string protocol = "fobs";
  std::int64_t seed = 42;
  ProtocolKnobs knobs;
};

const std::map<std::string, Protocol> kProtocols = {
    {"fobs", Protocol::kFobs}, {"rudp", Protocol::kRudp},         {"sabul", Protocol::kSabul},
    {"tcp", Protocol::kTcp},   {"psockets", Protocol::kPsockets}};

using fobs::exp::PathId;
const std::map<std::string, PathId> kPaths = {
    {"short", PathId::kShortHaul}, {"long", PathId::kLongHaul},
    {"gigabit", PathId::kGigabitOc12}, {"contended", PathId::kGigabitContended}};

/// The runs `--protocol` names: one, or the eight rows of `all`.
std::vector<std::pair<Protocol, ProtocolKnobs>> runs_for(const Options& options) {
  if (options.protocol != "all") return {{kProtocols.at(options.protocol), options.knobs}};
  auto with = [&](Protocol protocol, std::int64_t streams = 1, bool no_lwe = false) {
    ProtocolKnobs knobs = options.knobs;
    knobs.streams = streams;
    knobs.no_lwe = no_lwe;
    return std::pair{protocol, knobs};
  };
  return {with(Protocol::kFobs),        with(Protocol::kRudp),
          with(Protocol::kSabul),       with(Protocol::kPsockets, 1),
          with(Protocol::kPsockets, 8), with(Protocol::kPsockets, 16),
          with(Protocol::kTcp),         with(Protocol::kTcp, 1, true)};
}

bool parse(int argc, char** argv, Options& options) {
  struct NumericFlag {
    const char* name;
    std::int64_t min;
    std::int64_t max;
    std::int64_t* value;
  };
  const NumericFlag numeric[] = {
      {"--mb", 1, 1 << 20, &options.knobs.object_mib},
      {"--packet", 1, fobs::posix::kMaxPacketBytes, &options.knobs.packet_bytes},
      {"--ack-freq", 1, INT32_MAX, &options.knobs.ack_frequency},
      {"--batch", 1, INT32_MAX, &options.knobs.batch_size},
      {"--streams", 1, 1024, &options.knobs.streams},
      {"--seed", 0, INT64_MAX, &options.seed},
  };
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const char* value = i + 1 < argc ? argv[i + 1] : nullptr;
    const auto flag = std::find_if(std::begin(numeric), std::end(numeric),
                                   [&](const NumericFlag& f) { return arg == f.name; });
    if (flag != std::end(numeric)) {
      if (!fobs::examples::read_int(value, flag->min, flag->max, *flag->value)) {
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
      options.knobs.adaptive = true;
    } else if (arg == "--tcp-fallback") {
      options.knobs.adaptive = true;
      options.knobs.tcp_fallback = true;
    } else if (arg == "--no-lwe") {
      options.knobs.no_lwe = true;
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
              spec.rtt().seconds() * 1e3, static_cast<long long>(options.knobs.object_mib),
              static_cast<long long>(options.seed));
  TextTable table({"protocol", "done", "% max bw", "goodput", "elapsed", "notes"});
  bool all_completed = true;
  for (const auto& [protocol, knobs] : runs_for(options)) {
    exp::Testbed bed(spec, static_cast<std::uint64_t>(options.seed));
    const exp::ProtocolRow row = exp::run_protocol(bed, protocol, knobs);
    table.add_row({row.protocol, row.completed ? "yes" : "NO", TextTable::pct(row.fraction),
                   TextTable::num(row.goodput_mbps, 1) + " Mb/s",
                   TextTable::num(row.elapsed_s, 2) + " s", row.notes});
    all_completed = all_completed && row.completed;
  }
  table.print(std::cout);
  return all_completed ? 0 : 1;
}

// Benchmark harness for the FOBS libraries: runs one workload and prints
// its report as one JSON line on stdout. run.py builds this binary,
// checks the workload's ports, and turns the report into the
// benchmark's result line; see README.md.
#include <sys/statfs.h>
#include <sys/utsname.h>

#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <string_view>
#include <thread>

#include "exp/runner.h"
#include "net/datagram_channel.h"
#include "workloads.h"

namespace {

using perfbench::Clock;
using perfbench::FetchGeometry;
using perfbench::Report;
using perfbench::RunConfig;

/// Timed loops stop here at the latest, well inside the 180 s a run may take.
constexpr auto kHardDeadline = std::chrono::seconds(150);

int usage() {
  std::fprintf(stderr,
               "usage: perfbench_fobs --workload NAME --seed N --seconds S --trace 0|1\n"
               "                      --scratch DIR --port-base PORT [--spans FILE]\n"
               "                      [--short] [--flip-byte]\n");
  return 2;
}

bool parse_u64(const char* text, std::uint64_t& out) {
  char* end = nullptr;
  errno = 0;
  out = std::strtoull(text, &end, 10);
  return errno == 0 && end != text && *end == '\0';
}

/// Why this build must not be measured; empty when it may be.
std::string unmeasurable_build() {
#ifndef NDEBUG
  return "assertions are enabled (Debug build)";
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
  return "sanitizer build";
#endif
  const std::string_view flags = PERFBENCH_CXX_FLAGS;
  if (flags.find("-fsanitize") != std::string_view::npos) return "sanitizer flags in the build";
  if (flags.find("-O0") != std::string_view::npos) return "unoptimized build";
  return {};
}

std::string filesystem_of(const std::string& path) {
  struct statfs info {};
  if (::statfs(path.c_str(), &info) != 0) return "unknown";
  const auto type = static_cast<unsigned long>(info.f_type);
  switch (type) {
    case 0x01021994UL: return "tmpfs";
    case 0x794C7630UL: return "overlayfs";
    case 0xEF53UL: return "ext4";
    case 0x58465342UL: return "xfs";
    case 0x9123683EUL: return "btrfs";
    default: break;
  }
  char hex[32];
  std::snprintf(hex, sizeof hex, "0x%lx", type);
  return hex;
}

void stamp_environment(const RunConfig& config, Report& report) {
  report.note("workload", config.workload);
  report.note("seed", std::to_string(config.seed));
  report.note("seconds", config.seconds);
  report.note("trace", config.trace ? "1" : "0");
  report.note("nproc", static_cast<double>(std::thread::hardware_concurrency()));
  report.note("build_type", PERFBENCH_BUILD_TYPE);
  utsname host{};
  if (::uname(&host) == 0) report.note("kernel", std::string(host.sysname) + " " + host.release);
  report.note("scratch", config.scratch);
  report.note("scratch_fs", filesystem_of(config.scratch));
  std::string error;
  const auto probe = fobs::net::DatagramChannel::open({}, 64, std::nullopt, &error);
  report.note("datagram_io", !probe.valid()    ? "unavailable: " + error
                             : probe.batched() ? std::string("batched")
                                               : std::string("fallback"));
}

}  // namespace

int main(int argc, char** argv) {
  RunConfig config;
  std::uint64_t trace = 0;
  std::uint64_t port = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string_view arg = argv[i];
    if (arg == "--short") {
      config.short_mode = true;
      continue;
    }
    if (arg == "--flip-byte") {
      config.flip_byte = true;
      continue;
    }
    if (i + 1 >= argc) return usage();
    const char* value = argv[++i];
    bool ok = true;
    if (arg == "--workload") {
      config.workload = value;
    } else if (arg == "--seed") {
      ok = parse_u64(value, config.seed);
    } else if (arg == "--seconds") {
      char* end = nullptr;
      config.seconds = std::strtod(value, &end);
      ok = end != value && *end == '\0' && config.seconds > 0;
    } else if (arg == "--trace") {
      ok = parse_u64(value, trace) && trace <= 1;
    } else if (arg == "--scratch") {
      config.scratch = value;
    } else if (arg == "--spans") {
      config.spans_path = value;
    } else if (arg == "--port-base") {
      ok = parse_u64(value, port) && port > 0 && port < 65'000;
    } else {
      return usage();
    }
    if (!ok) return usage();
  }
  config.trace = trace == 1;
  config.port_base = static_cast<std::uint16_t>(port);
  if (config.workload.empty() || config.scratch.empty() || config.port_base == 0) return usage();

  if (const std::string why = unmeasurable_build(); !why.empty()) {
    std::fprintf(stderr, "perfbench: refusing to measure: %s\n", why.c_str());
    return 3;
  }
  for (const char* name : {"FOBS_IO_MODE", "FOBS_FAULT_PLAN"}) {
    if (std::getenv(name) != nullptr) {
      std::fprintf(stderr, "perfbench: refusing to measure: %s changes the program\n", name);
      return 3;
    }
  }
  config.hard_deadline = Clock::now() + kHardDeadline;

  Report report;
  perfbench::SpanLog spans(config.trace);
  stamp_environment(config, report);
  if (config.workload == "fetch_1k" || config.workload == "fetch_8k_x2") {
    FetchGeometry geometry =
        config.workload == "fetch_1k"
            ? FetchGeometry{fobs::exp::kPaperObjectBytes, fobs::exp::kPaperPacketBytes, 1}
            : FetchGeometry{64 << 20, 8 << 10, 2};
    if (config.short_mode) geometry.object_bytes = perfbench::kShortObjectBytes;
    perfbench::run_fetch_workload(config, geometry, spans, report);
  } else {
    std::fprintf(stderr, "perfbench: unknown workload '%s'\n", config.workload.c_str());
    return 2;
  }
  if (config.trace) {
    report.note("spans", static_cast<double>(spans.size()));
    if (!config.spans_path.empty() && !spans.write_jsonl(config.spans_path)) {
      report.note("spans_error", "cannot write " + config.spans_path);
    }
  }
  std::printf("%s\n", report.to_json().c_str());
  return 0;
}

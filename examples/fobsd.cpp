// fobsd — a FOBS file server over real sockets.
//
//   fobsd serve <dir> <port> [--stripes N]   # serve files from <dir>
//   fobsd fetch <host> <port> <name> <out> [--stripes N]
//   fobsd demo [--stripes N]                 # serve + 3 concurrent fetches
//
// Protocol: the client opens a TCP "catalog" connection to <port> and
// sends one request line: "<name> <client-udp-port> <stripes>\n". The
// server replies "<size> <packet-bytes> <first-control-port> <granted>\n"
// ("-1" = refused), then pushes the file over `granted` parallel FOBS
// flows (PSockets-style): flow i sends data to UDP port
// client-udp-port + i and takes its completion signal on control port
// first-control-port + i. One flow is just granted = 1. For serve,
// --stripes N caps what the server grants; for fetch and demo it is the
// count the client asks for.
//
// The heavy lifting lives in the library (fobs/posix/fileserver.h, on
// top of the transfer engine in fobs/posix/engine.h): requests are
// accepted concurrently, every transfer runs its flows as engine
// sessions on control ports the server leases by binding them from
// [port+1, port+1+32) (a port another socket holds is skipped), and a
// silent catalog client times out instead of wedging the server. With
// FOBS_TRACE_DIR set, every server-side flow writes
// fobsd_serve_<transfer>_<flow>.jsonl.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <iostream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "args.h"
#include "fobs/object.h"
#include "fobs/posix/fileserver.h"
#include "fobs/stripe/plan.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace {

std::string trace_dir() {
  const char* env = std::getenv("FOBS_TRACE_DIR");
  return env == nullptr ? std::string() : std::string(env);
}

int run_server(const std::string& dir, std::uint16_t port, int max_stripes) {
  fobs::posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = port;
  options.max_stripes = max_stripes;
  options.trace_dir = trace_dir();
  fobs::posix::FileServer server(options);
  if (!server.start()) {
    std::printf("fobsd: cannot serve %s on port %u\n", dir.c_str(), port);
    return 1;
  }
  // Serve until killed.
  sigset_t set;
  sigemptyset(&set);
  sigaddset(&set, SIGINT);
  sigaddset(&set, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &set, nullptr);
  int sig = 0;
  sigwait(&set, &sig);
  std::printf("fobsd: shutting down (%llu transfers served)\n",
              static_cast<unsigned long long>(server.transfers_completed()));
  server.stop();
  return 0;
}

int run_fetch(const std::string& host, std::uint16_t port, const std::string& name,
              const std::string& out_path, std::uint16_t data_port, int stripes) {
  fobs::posix::FetchOptions options;
  options.host = host;
  options.catalog_port = port;
  options.name = name;
  options.out_path = out_path;
  options.data_port = data_port;
  options.stripes = stripes;
  fobs::telemetry::EventTracer trace;
  if (!trace_dir().empty()) options.endpoint.tracer = &trace;
  const auto result = fobs::posix::fetch_file(options);
  if (!trace_dir().empty()) {
    (void)trace.write_jsonl_file(trace_dir() + "/fobsd_fetch.jsonl");
  }
  if (result.packets_restored > 0) {
    std::printf("fobsd: resumed from checkpoint (%lld packets already on disk)\n",
                static_cast<long long>(result.packets_restored));
  }
  if (!result.completed()) {
    std::printf("fobsd: fetch failed [%s]: %s\n", to_string(result.status),
                result.error.c_str());
    return 1;
  }
  std::printf("fobsd: fetched %s (%lld bytes, %d stripe%s%s, %.0f Mb/s, checksum %016llx)\n",
              name.c_str(), static_cast<long long>(result.bytes), result.stripes,
              result.stripes == 1 ? "" : "s",
              result.fallback_single_flow ? " [fallback]" : "", result.goodput_mbps,
              static_cast<unsigned long long>(result.checksum));
  return 0;
}

// Stages three files in `dir`, serves them, and fetches all three
// concurrently from distinct clients.
int serve_and_fetch(const std::string& dir, int stripes) {
  const std::vector<std::int64_t> sizes = {8 * 1024 * 1024, 3 * 1024 * 1024, 5 * 1024 * 1024};
  std::vector<std::uint64_t> checksums;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    auto original = fobs::core::TransferObject::pattern(sizes[i], 0xF0B5D + i);
    checksums.push_back(original.checksum());
    if (!original.write_to_file(dir + "/dataset" + std::to_string(i) + ".bin")) return 1;
  }

  fobs::posix::FileServerOptions server_options;
  server_options.dir = dir;
  server_options.catalog_port = 39100;
  server_options.trace_dir = trace_dir();
  fobs::posix::FileServer server(server_options);
  if (!server.start()) return 1;

  std::vector<std::thread> clients;
  std::vector<fobs::posix::FetchResult> fetches(sizes.size());
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    clients.emplace_back([&, i] {
      fobs::posix::FetchOptions options;
      options.catalog_port = 39100;
      options.name = "dataset" + std::to_string(i) + ".bin";
      options.out_path = dir + "/fetched" + std::to_string(i) + ".bin";
      // Each client needs `stripes` contiguous UDP ports.
      options.data_port = static_cast<std::uint16_t>(39200 + i * 16);
      options.stripes = stripes;
      fetches[i] = fobs::posix::fetch_file(options);
    });
  }
  for (auto& c : clients) c.join();
  server.stop();

  bool ok = true;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    const bool verified = fetches[i].completed() && fetches[i].checksum == checksums[i];
    std::printf("fobsd demo: dataset%zu %s (%lld bytes, %.0f Mb/s)\n", i,
                verified ? "verified" : "MISMATCH",
                static_cast<long long>(fetches[i].bytes), fetches[i].goodput_mbps);
    ok = ok && verified;
  }
  std::printf("fobsd demo: %llu concurrent transfers served, content %s\n",
              static_cast<unsigned long long>(server.transfers_completed()),
              ok ? "verified" : "MISMATCH");
  if (!trace_dir().empty()) {
    std::printf("\nprocess metrics:\n");
    fobs::telemetry::MetricsRegistry::global().to_table().print(std::cout);
  }
  return ok ? 0 : 1;
}

int run_demo(int stripes) {
  // A private temp dir, removed whether the demo passed or failed.
  std::error_code error;
  std::string dir =
      (std::filesystem::temp_directory_path(error) / "fobsd_demo.XXXXXX").string();
  if (error || ::mkdtemp(dir.data()) == nullptr) {
    std::printf("fobsd demo: cannot create a temp dir %s\n", dir.c_str());
    return 1;
  }
  const int rc = serve_and_fetch(dir, stripes);
  std::filesystem::remove_all(dir, error);
  return rc;
}

}  // namespace

int main(int argc, char** argv) {
  const auto usage = [&] {
    std::printf(
        "usage:\n  %s demo [--stripes N]\n  %s serve <dir> <port> [--stripes N]\n"
        "  %s fetch <host> <port> <name> <out> [--stripes N]\n"
        "<port> is 1..65535, N is 1..%d\n",
        argv[0], argv[0], argv[0], fobs::stripe::kMaxStripes);
    return 2;
  };
  // Split "--stripes N" out of the positional arguments.
  std::optional<int> stripes_flag;
  std::vector<std::string> args;
  for (int i = 1; i < argc; ++i) {
    if (std::string(argv[i]) != "--stripes") {
      args.emplace_back(argv[i]);
      continue;
    }
    std::int64_t n = 0;
    if (!fobs::examples::read_int(i + 1 < argc ? argv[++i] : nullptr, 1,
                                  fobs::stripe::kMaxStripes, n)) {
      return usage();
    }
    stripes_flag = static_cast<int>(n);
  }
  std::int64_t port = 0;
  const auto read_port = [&] {
    return fobs::examples::read_int(args[2].c_str(), 1, 65535, port);
  };
  const int stripes = stripes_flag.value_or(1);
  const std::string mode = args.empty() ? "demo" : args[0];
  if (mode == "demo") return run_demo(stripes);
  if (mode == "serve" && args.size() == 3 && read_port()) {
    // For serve, --stripes caps the grant (the library default when the
    // flag is absent).
    return run_server(args[1], static_cast<std::uint16_t>(port),
                      stripes_flag.value_or(fobs::posix::FileServerOptions{}.max_stripes));
  }
  if (mode == "fetch" && args.size() == 5 && read_port()) {
    return run_fetch(args[1], static_cast<std::uint16_t>(port), args[3], args[4],
                     /*data_port=*/39200, stripes);
  }
  return usage();
}

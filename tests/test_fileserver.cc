// FileServer + fetch_file end-to-end over loopback: the acceptance
// test for the concurrent fobsd redesign (three overlapping fetches
// from distinct clients, all byte-identical), the catalog-timeout
// bugfix (a connected-but-silent client can no longer wedge the serve
// loop), the catalog grant (stripe token, port-space clamp, the
// server's packet size wins), control ports leased by binding them
// (held ports skipped, exhaustion refused, ports freed with the
// transfer, concurrent grants disjoint, the range clipped at 65535), a
// client that starts before its server, the refusal paths, and packet
// sizes no datagram can carry (refused at start, malformed in a reply).
//
// Port block: 30100-30299 (test_engine owns 30000-30099), plus the
// control ports 65534-65535 of the port-max test.
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/stat.h>
#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <dirent.h>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "fobs/object.h"
#include "fobs/posix/codec.h"
#include "fobs/posix/fileserver.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs {
namespace {

/// Stages `count` pattern files ("dataset<i>.bin") into a fresh
/// directory under the test temp dir; returns their checksums.
std::vector<std::uint64_t> stage_files(const std::string& dir,
                                       const std::vector<std::int64_t>& sizes) {
  ::mkdir(dir.c_str(), 0755);
  std::vector<std::uint64_t> checksums;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    auto object = core::TransferObject::pattern(sizes[i], 0xF11E + static_cast<int>(i));
    checksums.push_back(object.checksum());
    EXPECT_TRUE(object.write_to_file(dir + "/dataset" + std::to_string(i) + ".bin"));
  }
  return checksums;
}

/// Opens a TCP connection to 127.0.0.1:`port`; returns the fd or -1.
int connect_tcp(std::uint16_t port) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return -1;
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  ::inet_pton(AF_INET, "127.0.0.1", &addr.sin_addr);
  if (::connect(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    ::close(fd);
    return -1;
  }
  return fd;
}

/// Polls `done` every 5 ms for up to 10 s; its final value.
template <typename Pred>
bool wait_until(Pred done) {
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (!done() && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  return done();
}

// ---------------------------------------------------------------------------
// Acceptance: >= 3 overlapping fetches from distinct clients
// ---------------------------------------------------------------------------

TEST(FileServer, ThreeOverlappingFetchesAreByteIdentical) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_accept";
  const std::vector<std::int64_t> sizes = {768 * 1024, 256 * 1024 + 7, 512 * 1024};
  const auto checksums = stage_files(dir, sizes);

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30100;  // control ports 30101..30132
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());
  EXPECT_TRUE(server.running());

  // Three clients fetch concurrently, each on its own UDP data port.
  std::vector<posix::FetchResult> results(sizes.size());
  std::vector<std::thread> clients;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    clients.emplace_back([&, i] {
      posix::FetchOptions fetch;
      fetch.catalog_port = options.catalog_port;
      fetch.name = "dataset" + std::to_string(i) + ".bin";
      fetch.out_path = dir + "/fetched" + std::to_string(i) + ".bin";
      fetch.data_port = static_cast<std::uint16_t>(30150 + i);
      fetch.quiet = true;
      fetch.endpoint.timeout_ms = 30'000;
      results[i] = posix::fetch_file(fetch);
    });
  }
  for (auto& client : clients) client.join();

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(results[i].status, posix::TransferStatus::kCompleted)
        << "fetch " << i << ": " << results[i].error;
    EXPECT_EQ(results[i].bytes, sizes[i]);
    EXPECT_EQ(results[i].checksum, checksums[i]) << "fetch " << i << " content differs";
    // The fetched file really landed on disk at full size.
    auto fetched =
        core::TransferObject::map_file(dir + "/fetched" + std::to_string(i) + ".bin");
    ASSERT_TRUE(fetched.has_value()) << "fetch " << i;
    EXPECT_EQ(fetched->size(), sizes[i]);
    EXPECT_EQ(fetched->checksum(), checksums[i]);
  }
  EXPECT_EQ(server.requests_handled(), sizes.size());
  EXPECT_EQ(server.transfers_started(), sizes.size());
  // A fetch returns once its receiver has the object; the server counts
  // the transfer when its sender flow has read the completion signal.
  EXPECT_TRUE(wait_until([&] { return server.transfers_completed() == sizes.size(); }));
  EXPECT_EQ(server.transfers_completed(), sizes.size());
  EXPECT_EQ(server.transfers_failed(), 0u);
  server.stop();
  EXPECT_FALSE(server.running());
}

// ---------------------------------------------------------------------------
// Bugfix: a silent catalog client must not wedge the serve loop
// ---------------------------------------------------------------------------

TEST(FileServer, SilentCatalogClientTimesOutAndServiceContinues) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_silent";
  const auto checksums = stage_files(dir, {128 * 1024});

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30160;
  options.catalog_recv_timeout_ms = 500;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  // A client connects and then says nothing — the pre-engine fobsd
  // would block on recv() here forever, wedging every later request.
  const int silent = connect_tcp(options.catalog_port);
  ASSERT_GE(silent, 0);

  // While the silent client sits there, a real fetch must still work.
  posix::FetchOptions fetch;
  fetch.catalog_port = options.catalog_port;
  fetch.name = "dataset0.bin";
  fetch.out_path = dir + "/fetched0.bin";
  fetch.data_port = 30170;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 30'000;
  const auto result = posix::fetch_file(fetch);
  EXPECT_EQ(result.status, posix::TransferStatus::kCompleted) << result.error;
  EXPECT_EQ(result.checksum, checksums[0]);

  // The silent connection is reaped by the catalog receive timeout.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.catalog_timeouts() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  EXPECT_EQ(server.catalog_timeouts(), 1u);
  EXPECT_EQ(server.transfers_completed(), 1u);
  ::close(silent);
  server.stop();
}

TEST(FileServer, StopWithHandlerInFlightIsPromptAndSafe) {
  // Regression: stop() used to destroy the engine while a catalog
  // handler could still be blocked in its receive (up to
  // catalog_recv_timeout_ms), leaving the handler to call into a dead
  // engine. stop() must quiesce that handler first — and do so promptly
  // (the stopping flag aborts the receive), not by waiting out the
  // timeout.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_stoprace";
  stage_files(dir, {4 * 1024});

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30140;
  options.catalog_recv_timeout_ms = 10'000;
  options.quiet = true;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  // Connect silently and wait until the handler is actually running
  // (it counts the request on entry), so stop() races a live handler.
  const int silent = connect_tcp(options.catalog_port);
  ASSERT_GE(silent, 0);
  const auto dispatch_deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.requests_handled() == 0 &&
         std::chrono::steady_clock::now() < dispatch_deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(server.requests_handled(), 1u);

  const auto stop_start = std::chrono::steady_clock::now();
  server.stop();
  const auto stop_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - stop_start)
                           .count();
  EXPECT_FALSE(server.running());
  EXPECT_LT(stop_ms, 5'000) << "stop() should abort the blocked handler, not wait out "
                               "catalog_recv_timeout_ms";
  ::close(silent);
}

// ---------------------------------------------------------------------------
// The catalog grant
// ---------------------------------------------------------------------------

struct CatalogReply {
  long long size = -1;
  long long packet_bytes = 0;
  int control_port = 0;
  int granted = 0;
};

/// Sends one raw catalog request line and parses the reply.
CatalogReply raw_catalog(std::uint16_t port, const std::string& request) {
  CatalogReply reply;
  const net::Fd conn(connect_tcp(port));
  if (!conn.valid()) return reply;
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  const std::string line = request + "\n";
  std::string answer;
  if (net::send_all(conn.get(), reinterpret_cast<const std::uint8_t*>(line.data()), line.size(),
                    deadline) &&
      net::recv_line(conn.get(), deadline, answer)) {
    std::sscanf(answer.c_str(), "%lld %lld %d %d", &reply.size, &reply.packet_bytes,
                &reply.control_port, &reply.granted);
  }
  return reply;
}

TEST(FileServer, CatalogGrantClampsToThePortSpaceAndDefaultsToOneStripe) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_grant";
  const std::vector<std::int64_t> sizes = {256 * 1024};
  stage_files(dir, sizes);

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30120;
  options.control_port_base = 30121;  // control ports 30121..30128
  options.control_port_count = 8;
  options.quiet = true;
  options.endpoint.packet_bytes = 4096;
  options.endpoint.timeout_ms = 1'000;  // nobody receives: let the sessions give up
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  // Data ports 65535..65538 do not exist: one stripe fits.
  const auto edge = raw_catalog(options.catalog_port, "dataset0.bin 65535 4");
  EXPECT_EQ(edge.size, sizes[0]);
  EXPECT_EQ(edge.packet_bytes, 4096);
  EXPECT_GE(edge.control_port, 30121);
  EXPECT_LE(edge.control_port, 30128);
  EXPECT_EQ(edge.granted, 1);

  // A missing or non-positive stripe token means one stripe.
  for (const char* request : {"dataset0.bin 30129", "dataset0.bin 30129 0",
                              "dataset0.bin 30129 -3"}) {
    const auto reply = raw_catalog(options.catalog_port, request);
    EXPECT_EQ(reply.size, sizes[0]) << request;
    EXPECT_EQ(reply.granted, 1) << request;
  }
  // A plain request is granted in full, on a contiguous control block.
  const auto three = raw_catalog(options.catalog_port, "dataset0.bin 30129 3");
  EXPECT_EQ(three.granted, 3);
  EXPECT_GE(three.control_port, 30121);
  EXPECT_LE(three.control_port + 2, 30128);
  server.stop();  // the handlers have returned: every grant is counted
  EXPECT_EQ(server.transfers_started(), 5u);
}

TEST(FileServer, ClientPacketSizeDiffersFromServerAndFetchCompletes) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_geometry";
  const std::vector<std::int64_t> sizes = {300 * 1024 + 11};
  const auto checksums = stage_files(dir, sizes);

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30110;
  options.control_port_base = 30111;
  options.control_port_count = 4;
  options.quiet = true;
  options.endpoint.packet_bytes = 4096;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  posix::FetchOptions fetch;
  fetch.catalog_port = options.catalog_port;
  fetch.name = "dataset0.bin";
  fetch.out_path = dir + "/fetched0.bin";
  fetch.data_port = 30116;
  fetch.quiet = true;
  fetch.endpoint.packet_bytes = 1024;  // the server's 4096 wins
  fetch.endpoint.timeout_ms = 30'000;
  const auto result = posix::fetch_file(fetch);
  ASSERT_TRUE(result.completed()) << result.error;
  EXPECT_EQ(result.stripes, 1);
  EXPECT_EQ(result.checksum, checksums[0]);
  const auto fetched = core::TransferObject::map_file(fetch.out_path);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->checksum(), checksums[0]);
  server.stop();
}

TEST(FileServer, EveryStripeSessionWritesItsOwnTrace) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_traces";
  const std::string trace_dir = dir + "/traces";
  stage_files(dir, {512 * 1024});
  ::mkdir(trace_dir.c_str(), 0755);
  auto list_traces = [&] {
    std::vector<std::string> names;
    if (DIR* d = ::opendir(trace_dir.c_str())) {
      while (const dirent* entry = ::readdir(d)) {
        const std::string name = entry->d_name;
        if (name.rfind("fobsd_serve_", 0) == 0) names.push_back(name);
      }
      ::closedir(d);
    }
    return names;
  };
  for (const auto& stale : list_traces()) std::remove((trace_dir + "/" + stale).c_str());

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30135;
  options.control_port_base = 30136;  // control ports 30136..30139
  options.control_port_count = 4;
  options.trace_dir = trace_dir;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  posix::FetchOptions fetch;
  fetch.catalog_port = options.catalog_port;
  fetch.name = "dataset0.bin";
  fetch.out_path = dir + "/fetched0.bin";
  fetch.data_port = 30193;  // and 30194
  fetch.stripes = 2;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 30'000;
  const auto result = posix::fetch_file(fetch);
  ASSERT_TRUE(result.completed()) << result.error;
  EXPECT_EQ(result.stripes, 2);
  // The server counts the transfer once both stripe sessions have read
  // their completion signal, i.e. after each wrote its trace.
  const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
  while (server.transfers_completed() == 0 && std::chrono::steady_clock::now() < deadline) {
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  EXPECT_EQ(server.transfers_completed(), 1u);
  server.stop();

  const auto traces = list_traces();
  ASSERT_EQ(traces.size(), 2u);
  for (const auto& name : traces) {
    const auto trace = core::TransferObject::map_file(trace_dir + "/" + name);
    ASSERT_TRUE(trace.has_value()) << name;
    EXPECT_GT(trace->size(), 0) << name;
  }
}

TEST(FileServer, FetchStartedBeforeTheServerCompletesOnceItListens) {
  // The catalog connect retries with backoff inside the fetch's
  // timeout, so a client may start before the server.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_early";
  const auto checksums = stage_files(dir, {256 * 1024 + 5});
  const std::string out = dir + "/fetched0.bin";
  std::remove(out.c_str());

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30196;
  options.control_port_base = 30197;  // control ports 30197..30198
  options.control_port_count = 2;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);

  posix::FetchOptions fetch;
  fetch.catalog_port = options.catalog_port;
  fetch.name = "dataset0.bin";
  fetch.out_path = out;
  fetch.data_port = 30199;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 30'000;
  posix::FetchResult result;
  std::thread client([&] { result = posix::fetch_file(fetch); });
  std::this_thread::sleep_for(std::chrono::milliseconds(300));
  const bool started = server.start();
  client.join();
  ASSERT_TRUE(started);
  ASSERT_TRUE(result.completed()) << result.error;
  EXPECT_EQ(result.checksum, checksums[0]);
  const auto fetched = core::TransferObject::map_file(out);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->checksum(), checksums[0]);
  server.stop();
}

// ---------------------------------------------------------------------------
// Control ports: a lease is a bound listener
// ---------------------------------------------------------------------------

/// A fetch of `name` from `server` into `out` on UDP `data_port`.
posix::FetchResult fetch_one(const posix::FileServer& server, const std::string& name,
                             const std::string& out, std::uint16_t data_port,
                             int timeout_ms) {
  posix::FetchOptions fetch;
  fetch.catalog_port = server.options().catalog_port;
  fetch.name = name;
  fetch.out_path = out;
  fetch.data_port = data_port;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = timeout_ms;
  return posix::fetch_file(fetch);
}

TEST(FileServer, SkipsAControlPortAnotherSocketHolds) {
  // Another socket listens on the first control port. Granting it would
  // leave the server's flow unable to listen and the client connected
  // to the other socket, waiting out its whole timeout; a grant is a
  // bound listener, so the server skips the held port instead.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_held";
  const auto checksums = stage_files(dir, {128 * 1024});
  const net::Fd holder = net::listen_tcp(30201, 4);
  ASSERT_TRUE(holder.valid());

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30200;
  options.control_port_base = 30201;  // control ports 30201..30202
  options.control_port_count = 2;
  options.quiet = true;
  options.endpoint.timeout_ms = 4'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  for (int i = 0; i < 2; ++i) {
    const auto result = fetch_one(server, "dataset0.bin", dir + "/fetched0.bin", 30205, 4'000);
    EXPECT_TRUE(result.completed()) << "fetch " << i << ": " << result.error;
    EXPECT_EQ(result.checksum, checksums[0]) << "fetch " << i;
    // 30202 is the only free control port: the next grant needs this
    // transfer's flow to have ended.
    EXPECT_TRUE(wait_until([&] { return server.transfers_completed() == i + 1u; }))
        << "fetch " << i;
  }
  server.stop();
  EXPECT_EQ(server.transfers_started(), 2u);
  EXPECT_EQ(server.transfers_failed(), 0u);
}

TEST(FileServer, RefusesWhenNoControlPortCanBeBound) {
  // Both control ports are held from outside the server: one by a
  // listener, one as the local port of an outgoing connection (the
  // kernel hands those out from its ephemeral range). Nothing can be
  // leased, so the request is refused rather than granted a dead port.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_exhausted";
  stage_files(dir, {64 * 1024});
  const net::Fd listener = net::listen_tcp(30211, 4);
  ASSERT_TRUE(listener.valid());
  const net::Fd outgoing(::socket(AF_INET, SOCK_STREAM, 0));
  ASSERT_TRUE(outgoing.valid());
  const sockaddr_in local = net::make_addr("127.0.0.1", 30212);
  ASSERT_EQ(::bind(outgoing.get(), reinterpret_cast<const sockaddr*>(&local), sizeof local), 0);
  const sockaddr_in peer = net::make_addr("127.0.0.1", 30211);
  ASSERT_EQ(::connect(outgoing.get(), reinterpret_cast<const sockaddr*>(&peer), sizeof peer),
            0);

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30210;
  options.control_port_base = 30211;  // control ports 30211..30212
  options.control_port_count = 2;
  options.quiet = true;
  options.endpoint.timeout_ms = 1'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  auto& exhausted =
      telemetry::MetricsRegistry::global().counter("fobs.fileserver.port_exhausted");
  const auto exhausted_before = exhausted.value();
  const auto reply = raw_catalog(options.catalog_port, "dataset0.bin 30215 2");
  EXPECT_EQ(reply.size, -1) << "granted control port " << reply.control_port;
  EXPECT_EQ(exhausted.value(), exhausted_before + 1);
  server.stop();
  EXPECT_EQ(server.requests_refused(), 1u);
  EXPECT_EQ(server.transfers_started(), 0u);
}

TEST(FileServer, ControlPortsAreFreedWhenTheTransferEnds) {
  // A one-port range serves fetches one after another: each transfer's
  // flow closes its listener when it ends.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_oneport";
  const auto checksums = stage_files(dir, {96 * 1024, 160 * 1024 + 9});

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30220;
  options.control_port_base = 30221;
  options.control_port_count = 1;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  for (int i = 0; i < 2; ++i) {
    const std::string name = "dataset" + std::to_string(i) + ".bin";
    const auto result = fetch_one(server, name, dir + "/fetched" + std::to_string(i) + ".bin",
                                  30225, 30'000);
    EXPECT_TRUE(result.completed()) << name << ": " << result.error;
    EXPECT_EQ(result.checksum, checksums[static_cast<std::size_t>(i)]) << name;
    EXPECT_TRUE(wait_until([&] { return server.transfers_completed() == i + 1u; })) << name;
  }
  server.stop();
  EXPECT_EQ(server.requests_refused(), 0u);
}

TEST(FileServer, ConcurrentGrantsGetDisjointBlocks) {
  // Eight catalog requests race for two-port blocks. The kernel decides
  // every bind race, so no two live grants share a port. Nobody
  // receives, and the long timeout keeps every grant held until stop().
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_disjoint";
  stage_files(dir, {64 * 1024});

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30230;
  options.control_port_base = 30231;  // control ports 30231..30254
  options.control_port_count = 24;
  options.workers = 32;  // 8 catalog handlers + up to 16 flows at once
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  std::vector<CatalogReply> replies(8);
  std::vector<std::thread> clients;
  for (auto& reply : replies) {
    clients.emplace_back(
        [&] { reply = raw_catalog(options.catalog_port, "dataset0.bin 30260 2"); });
  }
  for (auto& client : clients) client.join();

  std::vector<int> owner(options.control_port_count, -1);
  for (std::size_t i = 0; i < replies.size(); ++i) {
    const auto& reply = replies[i];
    ASSERT_EQ(reply.size, 64 * 1024) << "request " << i << " refused";
    ASSERT_GE(reply.granted, 1) << "request " << i;
    ASSERT_LE(reply.granted, 2) << "request " << i;
    for (int port = reply.control_port; port < reply.control_port + reply.granted; ++port) {
      ASSERT_GE(port, options.control_port_base) << "request " << i;
      ASSERT_LT(port, options.control_port_base + options.control_port_count)
          << "request " << i;
      auto& holder = owner[static_cast<std::size_t>(port - options.control_port_base)];
      EXPECT_EQ(holder, -1) << "port " << port << " granted to requests " << holder << " and "
                            << i;
      holder = static_cast<int>(i);
    }
  }
  server.stop();
  EXPECT_EQ(server.transfers_started(), replies.size());
}

TEST(FileServer, ControlRangePastPortMaxIsClampedNotWrapped) {
  // base 65534 + count 100 would wrap uint16_t arithmetic into low
  // ports; the scan stops at 65535 instead.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_portmax";
  stage_files(dir, {64 * 1024});

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30270;
  options.control_port_base = 65'534;
  options.control_port_count = 100;
  options.quiet = true;
  options.endpoint.timeout_ms = 30'000;  // nobody receives: held until stop()
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  const auto tail = raw_catalog(options.catalog_port, "dataset0.bin 30275 4");
  EXPECT_EQ(tail.size, 64 * 1024);
  EXPECT_EQ(tail.control_port, 65'534);
  EXPECT_EQ(tail.granted, 2);
  // Both tail ports are held: refused, not granted a wrapped port.
  const auto wrapped = raw_catalog(options.catalog_port, "dataset0.bin 30280 1");
  EXPECT_EQ(wrapped.size, -1) << "granted control port " << wrapped.control_port;
  server.stop();
  EXPECT_EQ(server.transfers_started(), 1u);
  EXPECT_EQ(server.requests_refused(), 1u);
}

TEST(FetchFile, UnmappablePartFailsNamingThePartFile) {
  // The out path's directory does not exist, so neither `<out>.part`
  // nor `<out>` can be written: the fetch fails up front, naming the
  // part file, rather than receiving into memory it cannot keep.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_unmappable";
  stage_files(dir, {64 * 1024});

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30285;
  options.control_port_base = 30286;
  options.control_port_count = 1;
  options.quiet = true;
  options.endpoint.timeout_ms = 1'000;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  const auto result =
      fetch_one(server, "dataset0.bin", dir + "/missing/fetched0.bin", 30290, 30'000);
  EXPECT_FALSE(result.completed());
  EXPECT_EQ(result.status, posix::TransferStatus::kSocketError);
  EXPECT_NE(result.error.find("fetched0.bin.part"), std::string::npos) << result.error;
  server.stop();
}

TEST(FetchFile, CatalogReplyWithAPacketSizeNoDatagramCarriesIsMalformed) {
  // A packet size sizes the receiver's datagram ring (32 slots of header
  // plus packet), so 2^40 would ask for 32 TiB. A fake catalog sends it,
  // then one byte past the largest datagram payload: each fetch fails
  // as a malformed reply before anything is mapped, and this process
  // lives to check it. A 1 PiB object no disk here holds is refused the
  // same way, before its .part is created.
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_bogus_reply";
  ::mkdir(dir.c_str(), 0755);
  std::remove((dir + "/fetched.bin.part").c_str());  // left by an earlier run
  const net::Fd listener = net::listen_tcp(30292, 4);
  ASSERT_TRUE(listener.valid());
  struct BogusReply {
    std::string line;
    const char* error;
  };
  const BogusReply replies[] = {
      {"10 " + std::to_string(std::int64_t{1} << 40) + " 30293 1", "malformed catalog reply"},
      {"10 " + std::to_string(posix::kMaxPacketBytes + 1) + " 30293 1",
       "malformed catalog reply"},
      {"1125899906842624 1024 30293 1", "size 1125899906842624 bytes does not fit"},
  };
  for (const BogusReply& reply : replies) {
    std::string request;
    std::thread catalog([&] {
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(10);
      net::Accepted conn;
      while (!conn.fd.valid() && std::chrono::steady_clock::now() < deadline) {
        conn = net::accept_peer(listener);
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
      if (!conn.fd.valid() || !net::recv_line(conn.fd.get(), deadline, request)) return;
      const std::string line = reply.line + "\n";
      net::send_all(conn.fd.get(), reinterpret_cast<const std::uint8_t*>(line.data()),
                    line.size(), deadline);
    });
    posix::FetchOptions fetch;
    fetch.catalog_port = 30292;
    fetch.name = "dataset0.bin";
    fetch.out_path = dir + "/fetched.bin";
    fetch.data_port = 30294;
    fetch.quiet = true;
    fetch.endpoint.timeout_ms = 10'000;
    const auto result = posix::fetch_file(fetch);
    catalog.join();
    EXPECT_EQ(request, "dataset0.bin 30294 1");
    EXPECT_EQ(result.status, posix::TransferStatus::kPeerLost) << reply.line;
    EXPECT_NE(result.error.find(reply.error), std::string::npos) << result.error;
    struct stat part{};
    EXPECT_NE(::stat((fetch.out_path + ".part").c_str(), &part), 0) << "the .part was mapped";
  }
}

// ---------------------------------------------------------------------------
// Refusal paths
// ---------------------------------------------------------------------------

TEST(FileServer, UnknownFileAndTraversalAreRefused) {
  const std::string dir = ::testing::TempDir() + "fobs_fileserver_refuse";
  stage_files(dir, {4 * 1024});

  posix::FileServerOptions options;
  options.dir = dir;
  options.catalog_port = 30180;
  options.quiet = true;
  posix::FileServer server(options);
  ASSERT_TRUE(server.start());

  posix::FetchOptions missing;
  missing.catalog_port = options.catalog_port;
  missing.name = "no-such-file.bin";
  missing.out_path = dir + "/never.bin";
  missing.data_port = 30185;
  missing.quiet = true;
  const auto refused = posix::fetch_file(missing);
  EXPECT_EQ(refused.status, posix::TransferStatus::kPeerLost);
  EXPECT_FALSE(refused.completed());

  posix::FetchOptions traversal = missing;
  traversal.name = "../dataset0.bin";
  const auto blocked = posix::fetch_file(traversal);
  EXPECT_FALSE(blocked.completed());

  EXPECT_EQ(server.requests_refused(), 2u);
  EXPECT_EQ(server.transfers_started(), 0u);
  server.stop();
}

TEST(FileServer, StartRejectsInvalidOptions) {
  posix::FileServerOptions no_dir_options;
  no_dir_options.catalog_port = 30190;
  posix::FileServer no_dir(no_dir_options);
  EXPECT_FALSE(no_dir.start());

  posix::FileServerOptions no_port_options;
  no_port_options.dir = "/tmp";
  posix::FileServer no_port(no_port_options);
  EXPECT_FALSE(no_port.start());

  // Every reply carries the packet size: one no datagram can carry, or
  // none, is refused at start, before the catalog port is bound.
  for (const std::int64_t packet_bytes : {std::int64_t{0}, posix::kMaxPacketBytes + 1}) {
    posix::FileServerOptions oversized_options;
    oversized_options.dir = "/tmp";
    oversized_options.catalog_port = 30291;
    oversized_options.quiet = true;
    oversized_options.endpoint.packet_bytes = packet_bytes;
    posix::FileServer oversized(oversized_options);
    EXPECT_FALSE(oversized.start()) << packet_bytes;
  }
}

}  // namespace
}  // namespace fobs

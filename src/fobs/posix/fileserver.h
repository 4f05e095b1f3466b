// A concurrent FOBS file server (and its fetch client) built on the
// transfer engine — the library form of `fobsd`.
//
// Catalog protocol (one TCP connection per request):
//   client -> "<name> <client-udp-port> <stripes>\n"
//   server -> "<size> <packet-bytes> <first-control-port> <granted>\n"
//             ("-1" alone = refused)
// The catalog exchange is the only agreement between the two sides.
// A missing or non-positive stripe token means 1. The server grants at
// most the requested count, clamped by max_stripes, the object's packet
// count, the UDP port space (client-udp-port + granted - 1 <= 65535)
// and the largest contiguous block of control ports it can lease. A
// lease is a bound listener: the server binds the block before it
// replies, hands the listeners to the send transfer, and each flow
// closes its own when it ends, so a port another socket holds is
// skipped, never granted. Both sides then submit one engine transfer
// with stripes = granted:
// the same contiguous StripePlan, flow i pushing data to UDP port
// client-udp-port + i with its completion connection on control port
// first-control-port + i (fobs/stripe/plan.h). One flow is
// simply granted = 1. Catalog sockets carry a receive timeout: a client
// that connects and sends nothing stalls only its own pool worker for
// `catalog_recv_timeout_ms`, never the accept loop.
//
// The fetch client is crash-resilient: it receives into a writable
// mapping of `<out>.part` with one object-level `<out>.ckpt` bitmap
// that every stripe shares, resumes from both when they match — at any
// stripe count — and renames into place when complete. While the flows
// run, a WriteBehind starts the writeback of each 4 MiB window of a
// flow's stripe once every packet in it has arrived; after they end,
// msync makes the file durable before the rename.
#pragma once

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>

#include "fobs/posix/engine.h"

namespace fobs::posix {

struct FileServerOptions {
  std::string dir;                   ///< directory served (required)
  std::uint16_t catalog_port = 0;    ///< TCP catalog listener (required)
  /// Per-flow control ports are leased by binding them from
  /// [base, base + count), clipped at 65535; 0 base = catalog_port + 1.
  std::uint16_t control_port_base = 0;
  std::uint16_t control_port_count = 32;
  /// Worker threads: bounds concurrently running transfers (plus
  /// in-flight catalog exchanges).
  std::size_t workers = 4;
  /// Catalog-socket receive timeout — the serve loop can no longer be
  /// wedged by a silent client.
  int catalog_recv_timeout_ms = 5'000;
  /// Per-flow JSONL traces (`fobsd_serve_<transfer-id>_<flow>.jsonl`)
  /// are written here when non-empty.
  std::string trace_dir;
  /// Suppress per-request stdout lines (tests).
  bool quiet = false;
  /// Most stripes the server grants one request (further clamped by
  /// the control ports it can bind, the object's packet count and the
  /// client's port space). 1 serves every client over a single flow.
  int max_stripes = 8;
  /// Applied to every transfer (timeout, packet size, ...).
  EndpointOptions endpoint;
};

class FileServer {
 public:
  explicit FileServer(FileServerOptions options);
  ~FileServer();

  FileServer(const FileServer&) = delete;
  FileServer& operator=(const FileServer&) = delete;

  /// Binds the catalog listener and starts accepting. False when the
  /// options are invalid (a packet size outside [1, kMaxPacketBytes]
  /// included) or the port cannot be bound.
  bool start();
  /// Stops accepting, cancels live sessions, waits for them to finish.
  void stop();
  [[nodiscard]] bool running() const;

  [[nodiscard]] const FileServerOptions& options() const { return options_; }

  // Lifetime counters (monotonic).
  [[nodiscard]] std::uint64_t requests_handled() const { return requests_.load(); }
  [[nodiscard]] std::uint64_t requests_refused() const { return refused_.load(); }
  [[nodiscard]] std::uint64_t catalog_timeouts() const { return catalog_timeouts_.load(); }
  [[nodiscard]] std::uint64_t transfers_started() const { return started_.load(); }
  [[nodiscard]] std::uint64_t transfers_completed() const { return completed_.load(); }
  [[nodiscard]] std::uint64_t transfers_failed() const { return failed_.load(); }

 private:
  void handle_catalog(fobs::net::Fd fd, const std::string& peer_host);

  FileServerOptions options_;
  std::unique_ptr<TransferEngine> engine_;
  /// Set for the duration of stop(): catalog handlers still in flight
  /// abort their recv and refuse new sessions, so the engine can be
  /// quiesced and destroyed without racing them.
  std::atomic<bool> stopping_{false};
  std::atomic<std::uint64_t> requests_{0};
  std::atomic<std::uint64_t> refused_{0};
  std::atomic<std::uint64_t> catalog_timeouts_{0};
  std::atomic<std::uint64_t> started_{0};
  std::atomic<std::uint64_t> completed_{0};
  std::atomic<std::uint64_t> failed_{0};
};

struct FetchOptions {
  std::string host = "127.0.0.1";
  std::uint16_t catalog_port = 0;  ///< server's catalog port (required)
  std::string name;                ///< file name in the server's directory
  std::string out_path;            ///< local destination path
  std::uint16_t data_port = 0;     ///< local UDP port for the data (required)
  bool quiet = false;
  /// Stripe count to request; the server may grant fewer. Data flows
  /// use UDP ports [data_port, data_port + granted).
  int stripes = 1;
  /// Applied to the receive transfer; packet_bytes is taken from the
  /// server's catalog reply. timeout_ms also bounds the catalog connect
  /// (retried while the server is still starting) and its reply.
  EndpointOptions endpoint;
};

struct FetchResult {
  TransferStatus status = TransferStatus::kPending;
  std::string error;
  std::int64_t bytes = 0;
  std::int64_t packets_restored = 0;  ///< resumed from a checkpoint
  double goodput_mbps = 0.0;
  /// CRC-32C of the fetched content, folded from the packet CRCs the
  /// receive flows checked (TransferResult::checksum), not re-read.
  std::uint64_t checksum = 0;
  int stripes = 0;             ///< flows actually used (granted by the server)
  /// More than one stripe was requested but the server granted one.
  bool fallback_single_flow = false;

  [[nodiscard]] bool completed() const { return status == TransferStatus::kCompleted; }
};

/// Fetches one file from a FileServer (or `fobsd serve`). Blocking.
FetchResult fetch_file(const FetchOptions& options);

}  // namespace fobs::posix

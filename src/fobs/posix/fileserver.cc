#include "fobs/posix/fileserver.h"

#include <sys/stat.h>
#include <sys/statvfs.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <vector>

#include "common/log.h"
#include "fobs/object.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/codec.h"
#include "fobs/stripe/plan.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::posix {

namespace {

using Clock = std::chrono::steady_clock;

bool name_is_safe(const std::string& name) {
  if (name.empty() || name.front() == '/') return false;
  return name.find("..") == std::string::npos;
}

/// Leases control ports by binding them: the largest contiguous block of
/// at most `want` ports in [base, end) that binds, lowest port first, is
/// returned bound with its first port in `first`. The kernel's port
/// table is the only record of which ports are free, so concurrent
/// catalog handlers need no lock: every bind race has one winner. Empty
/// when not even one port binds.
std::vector<fobs::net::Fd> lease_control_ports(int base, int end, int want, int& first) {
  for (int count = want; count >= 1; --count) {
    for (first = base; first + count <= end; ++first) {
      auto block = fobs::net::listen_tcp_block(static_cast<std::uint16_t>(first), count);
      if (!block.empty()) return block;
    }
  }
  return {};
}

}  // namespace

// ---------------------------------------------------------------------------
// FileServer
// ---------------------------------------------------------------------------

FileServer::FileServer(FileServerOptions options) : options_(std::move(options)) {
  if (options_.control_port_base == 0) {
    options_.control_port_base = static_cast<std::uint16_t>(options_.catalog_port + 1);
  }
}

FileServer::~FileServer() { stop(); }

bool FileServer::start() {
  if (engine_) return false;  // already started
  if (options_.dir.empty() || options_.catalog_port == 0 ||
      options_.control_port_base == 0 || options_.control_port_count == 0 ||
      options_.endpoint.packet_bytes <= 0 || options_.endpoint.packet_bytes > kMaxPacketBytes) {
    return false;
  }
  EngineOptions engine_options;
  engine_options.workers = options_.workers;
  engine_options.session_tracers = !options_.trace_dir.empty();
  engine_ = std::make_unique<TransferEngine>(engine_options);
  if (!engine_->start_acceptor(options_.catalog_port,
                               [this](fobs::net::Fd fd, std::string peer) {
                                 handle_catalog(std::move(fd), peer);
                               })) {
    engine_.reset();
    return false;
  }
  if (!options_.quiet) {
    std::printf("fobsd: serving %s on port %u (%zu workers, %u control ports)\n",
                options_.dir.c_str(), options_.catalog_port, options_.workers,
                options_.control_port_count);
  }
  return true;
}

void FileServer::stop() {
  if (!engine_) return;
  // Quiesce order matters: the stopping flag makes catalog handlers
  // bail out of recv_line and refuse new sessions; cancelling live
  // sessions first frees pool workers so queued handlers drain fast;
  // stop_acceptor() then blocks until every dispatched handler has
  // returned — only after that is it safe to destroy the engine the
  // handlers call into.
  stopping_.store(true);
  engine_->cancel_all();
  engine_->stop_acceptor();
  engine_->cancel_all();  // sessions submitted by handlers mid-shutdown
  engine_->wait_idle();
  engine_.reset();
  stopping_.store(false);
}

bool FileServer::running() const { return engine_ != nullptr && engine_->acceptor_running(); }

void FileServer::handle_catalog(fobs::net::Fd fd, const std::string& peer_host) {
  if (stopping_.load(std::memory_order_relaxed)) return;
  requests_.fetch_add(1, std::memory_order_relaxed);
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(std::max(1, options_.catalog_recv_timeout_ms));
  // The deadline keeps a connected-but-silent client from wedging a
  // catalog worker; the stopping flag reclaims it at once on shutdown.
  std::string request;
  if (!fobs::net::recv_line(fd.get(), deadline, request, &stopping_)) {
    if (!stopping_.load(std::memory_order_relaxed)) {
      catalog_timeouts_.fetch_add(1, std::memory_order_relaxed);
      telemetry::MetricsRegistry::global().counter("fobs.fileserver.catalog_timeouts").inc();
    }
    return;
  }
  const auto space = request.find(' ');
  const std::string name = request.substr(0, space);
  int client_port = 0;
  int requested = 0;
  if (space != std::string::npos) {
    std::sscanf(request.c_str() + space + 1, "%d %d", &client_port, &requested);
  }
  requested = std::max(requested, 1);  // a missing or non-positive token means 1

  // Replies within the catalog's receive budget; dropping `fd` closes it.
  const auto reply = [&](const std::string& line) {
    fobs::net::send_all(fd.get(), reinterpret_cast<const std::uint8_t*>(line.data()),
                        line.size(), deadline);
  };
  auto refuse = [&] {
    refused_.fetch_add(1, std::memory_order_relaxed);
    reply("-1\n");
  };
  if (stopping_.load(std::memory_order_relaxed)) {
    // Shed the request instead of starting a session the shutdown
    // would immediately cancel.
    return refuse();
  }
  auto mapped = name_is_safe(name)
                    ? fobs::core::TransferObject::map_file(options_.dir + "/" + name)
                    : std::nullopt;
  if (!mapped || client_port <= 0 || client_port > 65535) return refuse();
  // The grant: what the client asked for, clamped by our cap, the
  // object's packet count (0 for an empty file, which is refused) and
  // the client's UDP port space.
  const fobs::core::TransferSpec spec{mapped->size(), options_.endpoint.packet_bytes};
  int granted = std::min({requested, std::max(options_.max_stripes, 1),
                          stripe::StripePlan::max_stripes(spec), 0x10000 - client_port});
  if (granted < 1) return refuse();
  // The range never reaches past port 65535.
  const int range_end =
      std::min(options_.control_port_base + options_.control_port_count, 0x10000);
  int control_port = 0;
  auto listeners =
      lease_control_ports(options_.control_port_base, range_end, granted, control_port);
  if (listeners.empty()) {
    // No control port binds: shed load instead of granting a transfer
    // that could not listen anywhere.
    telemetry::MetricsRegistry::global().counter("fobs.fileserver.port_exhausted").inc();
    return refuse();
  }
  granted = static_cast<int>(listeners.size());
  auto object = std::make_shared<fobs::core::TransferObject>(std::move(*mapped));
  reply(std::to_string(object->size()) + " " + std::to_string(spec.packet_bytes) + " " +
        std::to_string(control_port) + " " + std::to_string(granted) + "\n");
  fd.reset();  // catalog exchange done; the transfer takes over

  SenderOptions send_options;
  send_options.receiver_host = peer_host;
  send_options.data_port = static_cast<std::uint16_t>(client_port);
  send_options.control_port = static_cast<std::uint16_t>(control_port);
  send_options.endpoint = options_.endpoint;
  send_options.stripes = granted;
  SessionParams params;
  params.keepalive = object;
  params.control_listeners = std::move(listeners);
  params.on_exit = [this, name, peer_host, client_port](const TransferHandle& handle) {
    const TransferResult& result = handle.result();
    if (!options_.trace_dir.empty()) {
      for (int flow = 0; flow < result.stripes; ++flow) {
        const std::string path = options_.trace_dir + "/fobsd_serve_" +
                                 std::to_string(handle.id()) + "_" + std::to_string(flow) +
                                 ".jsonl";
        if (handle.tracer(flow) != nullptr && !handle.tracer(flow)->write_jsonl_file(path)) {
          FOBS_WARN("fobs.fileserver", "failed writing trace " << path);
        }
      }
    }
    if (result.completed()) {
      completed_.fetch_add(1, std::memory_order_relaxed);
    } else {
      failed_.fetch_add(1, std::memory_order_relaxed);
    }
    if (!options_.quiet) {
      std::printf("fobsd: %s -> %s:%d  %s (%d stripe%s, %.0f Mb/s)%s%s\n", name.c_str(),
                  peer_host.c_str(), client_port, to_string(result.status), result.stripes,
                  result.stripes == 1 ? "" : "s", result.goodput_mbps,
                  result.error.empty() ? "" : ": ", result.error.c_str());
    }
  };
  started_.fetch_add(1, std::memory_order_relaxed);
  engine_->submit_send(send_options, object->view(), std::move(params));
}

// ---------------------------------------------------------------------------
// fetch_file
// ---------------------------------------------------------------------------

FetchResult fetch_file(const FetchOptions& options) {
  FetchResult result;
  result.status = TransferStatus::kBadOptions;
  if (options.catalog_port == 0 || options.data_port == 0 || options.name.empty() ||
      options.out_path.empty()) {
    result.error = "invalid options: catalog_port, data_port, name, out_path are required";
    return result;
  }

  // Catalog exchange. The connect retries with backoff (the server may
  // still be starting) within the same budget as the reply.
  const auto deadline =
      Clock::now() + std::chrono::milliseconds(std::max(1, options.endpoint.timeout_ms));
  const fobs::net::Fd conn =
      fobs::net::connect_with_backoff(options.host, options.catalog_port, deadline);
  if (!conn.valid()) {
    result.status = TransferStatus::kPeerLost;
    result.error = "catalog connect failed";
    return result;
  }
  // Every data port [data_port, data_port + stripes) must exist.
  const int requested =
      std::clamp(options.stripes, 1, std::min(stripe::kMaxStripes, 0x10000 - options.data_port));
  const std::string request = options.name + " " + std::to_string(options.data_port) + " " +
                              std::to_string(requested) + "\n";
  std::string reply;
  const bool got_reply =
      fobs::net::send_all(conn.get(), reinterpret_cast<const std::uint8_t*>(request.data()),
                          request.size(), deadline) &&
      fobs::net::recv_line(conn.get(), deadline, reply);
  long long size = -1;
  long long packet_bytes = 0;
  int control_port = 0;
  int granted = 0;
  if (got_reply) {
    std::sscanf(reply.c_str(), "%lld %lld %d %d", &size, &packet_bytes, &control_port, &granted);
  }
  if (size < 0) {
    result.status = TransferStatus::kPeerLost;
    result.error = "server refused '" + options.name + "'";
    return result;
  }
  // The packet size sizes the receive ring: bound it before any mapping.
  if (size == 0 || packet_bytes <= 0 || packet_bytes > kMaxPacketBytes || control_port <= 0 ||
      control_port > 65535 || granted < 1 || granted > requested) {
    result.status = TransferStatus::kPeerLost;
    result.error = "malformed catalog reply '" + reply + "'";
    return result;
  }
  result.bytes = size;

  // Crash resilience: the receive buffer IS the <out>.part file — a
  // writable shared mapping, so every validated packet lands in the
  // page cache the moment it is written and the bitmap checkpoint can
  // never record packets whose bytes a hard crash (kill -9, OOM) threw
  // away. The bitmap may lag the data, which only costs resends.
  const std::string partial_path = options.out_path + ".part";
  const std::string checkpoint_path = options.out_path + ".ckpt";
  struct stat part_stat{};
  const bool resuming = ::stat(partial_path.c_str(), &part_stat) == 0 &&
                        part_stat.st_size == static_cast<off_t>(size);
  if (!resuming) {
    // No matching partial bytes: a leftover checkpoint describes data
    // we do not have, and restoring it would leave silent zero-filled
    // holes in the fetched file.
    remove_checkpoint(checkpoint_path);
  } else if (!options.quiet) {
    std::printf("fobsd: found partial fetch %s, attempting resume\n", partial_path.c_str());
  }
  // The reply's size is the peer's word: refuse one the output
  // directory cannot hold before the mapping creates and reserves it.
  // A matching .part already holds its own blocks.
  const std::string out_dir = std::filesystem::path(options.out_path).parent_path().string();
  struct statvfs fs{};
  if (::statvfs(out_dir.empty() ? "." : out_dir.c_str(), &fs) == 0) {
    const unsigned long long free_bytes =
        fs.f_bavail * fs.f_frsize + (resuming ? part_stat.st_blocks * 512ull : 0);
    if (static_cast<unsigned long long>(size) > free_bytes) {
      result.status = TransferStatus::kPeerLost;
      result.error = "catalog reply size " + std::to_string(size) +
                     " bytes does not fit in the " + std::to_string(free_bytes) +
                     " bytes free for " + options.out_path;
      return result;
    }
  }
  auto partial = fobs::core::TransferObject::map_file_rw(partial_path,
                                                         static_cast<std::int64_t>(size));
  if (!partial) {
    result.status = TransferStatus::kSocketError;
    result.error = "cannot map " + partial_path;
    return result;
  }
  ReceiverOptions recv_options;
  recv_options.sender_host = options.host;
  recv_options.data_port = options.data_port;
  recv_options.control_port = static_cast<std::uint16_t>(control_port);
  recv_options.endpoint = options.endpoint;
  recv_options.endpoint.packet_bytes = packet_bytes;
  recv_options.stripes = granted;
  recv_options.checkpoint_path = checkpoint_path;
  // One receive flow per granted stripe, all writing the mapping at
  // plan offsets. The write-behind starts writing each flow's finished
  // pages back while the rest arrive, so the msync below, the
  // durability barrier before the rename, finds little left to write.
  fobs::core::WriteBehind write_behind(*partial);
  const TransferResult received =
      receive_object(recv_options, partial->mutable_view(), &write_behind);
  write_behind.join();
  result.status = received.status;
  result.error = received.error;
  result.packets_restored = received.packets_restored;
  result.goodput_mbps = received.goodput_mbps;
  result.stripes = received.stripes;
  result.fallback_single_flow = requested > 1 && granted == 1;
  if (!options.quiet && result.fallback_single_flow) {
    std::printf("fobsd: server granted one flow\n");
  }
  partial->sync();
  if (!result.completed()) {
    if (!options.quiet) {
      std::printf("fobsd: kept partial bytes in %s for resume\n", partial_path.c_str());
    }
    return result;
  }
  // Folded from the packet CRCs the flows checked: no pass over the file.
  result.checksum = received.checksum;
  partial.reset();  // unmap before renaming into place
  if (std::rename(partial_path.c_str(), options.out_path.c_str()) != 0) {
    result.status = TransferStatus::kSocketError;
    result.error = "cannot move " + partial_path + " to " + options.out_path;
    return result;
  }
  return result;
}

}  // namespace fobs::posix

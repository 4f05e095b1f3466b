#include "baselines/tcp_bulk.h"

#include <algorithm>
#include <cassert>
#include <memory>

#include "fobs/stripe/plan.h"

namespace fobs::baselines {

namespace {

/// Transfer i listens on kFirstPort + i (iperf's favourite first).
constexpr fobs::sim::PortId kFirstPort = 5001;
/// Give up after this much simulated time.
constexpr Duration kTimeout = Duration::seconds(600);

}  // namespace

fobs::net::TcpConfig tcp_with_lwe() {
  fobs::net::TcpConfig config;
  config.window_scaling = true;
  config.sack_enabled = true;
  config.recv_buffer_bytes = 4 * 1024 * 1024;  // plenty for a 65 ms BDP
  return config;
}

fobs::net::TcpConfig tcp_without_lwe() {
  fobs::net::TcpConfig config;
  config.window_scaling = false;   // advertised window capped at 64 KiB
  config.sack_enabled = false;     // stock pre-extension stack
  config.recv_buffer_bytes = 64 * 1024;
  return config;
}

fobs::net::TcpConfig psockets_stream_config(std::int64_t per_socket_buffer_bytes) {
  fobs::net::TcpConfig config;
  config.window_scaling = true;
  config.sack_enabled = true;
  config.recv_buffer_bytes = per_socket_buffer_bytes;
  return config;
}

std::vector<TcpTransfer> psockets_transfers(Host& src, Host& dst, std::int64_t bytes,
                                            int streams) {
  assert(streams >= 1);
  std::vector<TcpTransfer> transfers;
  int i = 0;
  for (const std::int64_t stream_bytes : fobs::stripe::round_robin_split(bytes, streams)) {
    transfers.push_back({src, dst, stream_bytes, Duration::milliseconds(2) * i++});
  }
  return transfers;
}

TcpRunResult run_tcp_transfers(fobs::sim::Network& network,
                               const std::vector<TcpTransfer>& transfers,
                               const fobs::net::TcpConfig& config,
                               fobs::telemetry::EventTracer* tracer) {
  using fobs::net::TcpConnection;
  using fobs::net::TcpListener;

  auto& sim = network.sim();
  const auto run_start = sim.now();
  const auto deadline = run_start + kTimeout;
  const auto count = static_cast<std::int64_t>(transfers.size());
  std::int64_t total_bytes = 0;
  std::int64_t unfinished = 0;  // a zero-byte transfer has nothing to deliver
  for (const auto& t : transfers) {
    total_bytes += t.bytes;
    if (t.bytes > 0) ++unfinished;
  }
  if (tracer != nullptr) {
    tracer->set_clock([&sim] { return sim.now().ns(); });
    tracer->record(fobs::telemetry::EventType::kTransferStart, count, total_bytes);
  }

  TcpRunResult result;
  result.transfer_elapsed.assign(transfers.size(), Duration::zero());
  std::int64_t delivered_total = 0;

  // Listeners first, then senders: transfer i connects to port
  // kFirstPort + i on its receiver and reports its own delivered count.
  std::vector<std::unique_ptr<TcpListener>> listeners;
  std::vector<std::unique_ptr<TcpConnection>> servers;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const std::int64_t bytes = transfers[i].bytes;
    listeners.push_back(std::make_unique<TcpListener>(
        transfers[i].receiver, static_cast<fobs::sim::PortId>(kFirstPort + i), config,
        [&, i, bytes](std::unique_ptr<TcpConnection> conn) {
          conn->set_on_delivered([&, i, bytes, last = std::int64_t{0}](
                                     fobs::net::Seq delivered) mutable {
            delivered_total += delivered - last;
            last = delivered;
            if (delivered >= bytes && result.transfer_elapsed[i] == Duration::zero()) {
              result.transfer_elapsed[i] = sim.now() - run_start;
              --unfinished;
            }
          });
          servers.push_back(std::move(conn));
        }));
  }
  std::vector<std::unique_ptr<TcpConnection>> clients;
  std::vector<fobs::sim::EventId> starts;
  for (std::size_t i = 0; i < transfers.size(); ++i) {
    const auto& t = transfers[i];
    auto* client = clients.emplace_back(std::make_unique<TcpConnection>(t.sender, config)).get();
    client->set_on_connected([client, bytes = t.bytes] { client->offer_bytes(bytes); });
    starts.push_back(sim.schedule_in(t.start, [client, dst = t.receiver.id(), i] {
      client->connect(dst, static_cast<fobs::sim::PortId>(kFirstPort + i));
    }));
  }

  // Only events due before the limit run: one at or past it would start
  // work the run no longer counts.
  while (unfinished > 0 && sim.next_event_time().value_or(deadline) < deadline) {
    sim.step();
  }
  for (const auto id : starts) sim.cancel(id);

  result.completed = unfinished == 0;
  if (tracer != nullptr) {
    tracer->record(result.completed ? fobs::telemetry::EventType::kCompletion
                                    : fobs::telemetry::EventType::kTimeout,
                   count, delivered_total);
  }
  for (const auto& client : clients) {
    result.retransmissions += client->stats().retransmissions;
    result.timeouts += client->stats().timeouts;
  }
  if (result.completed) {
    for (const auto elapsed : result.transfer_elapsed) {
      result.elapsed = std::max(result.elapsed, elapsed);
    }
    result.goodput_mbps =
        fobs::util::rate_of(fobs::util::DataSize::bytes(total_bytes), result.elapsed).mbps();
  }
  return result;
}

}  // namespace fobs::baselines

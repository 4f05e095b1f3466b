#include "baselines/psockets.h"

#include <cassert>
#include <memory>
#include <vector>

#include "fobs/stripe/plan.h"

namespace fobs::baselines {

PsocketsResult run_psockets_transfer(fobs::sim::Network& network, Host& src, Host& dst,
                                     std::int64_t bytes, int streams,
                                     const fobs::net::TcpConfig& per_stream_config,
                                     Duration timeout, fobs::telemetry::EventTracer* tracer) {
  using fobs::net::TcpConnection;
  using fobs::net::TcpListener;
  assert(streams >= 1);

  auto& sim = network.sim();
  const auto start = sim.now();
  const auto deadline = start + timeout;
  constexpr fobs::sim::PortId kPort = 5002;
  if (tracer != nullptr) {
    tracer->set_clock([&sim] { return sim.now().ns(); });
    tracer->record(fobs::telemetry::EventType::kTransferStart, streams, bytes);
  }

  // One shared partition rule with FOBS striping (fobs/stripe/plan.h):
  // even split, remainder spread over the first streams.
  const std::vector<std::int64_t> stripe_bytes = fobs::stripe::round_robin_split(bytes, streams);

  // Receiver-side accounting: sum of per-stream deliveries. Each server
  // connection reports a cumulative count, so track deltas.
  std::vector<std::unique_ptr<TcpConnection>> servers;
  std::int64_t delivered_total = 0;
  bool done = false;
  fobs::util::TimePoint done_at;

  TcpListener listener(dst, kPort, per_stream_config,
                       [&](std::unique_ptr<TcpConnection> conn) {
                         auto* raw = conn.get();
                         servers.push_back(std::move(conn));
                         auto last = std::make_shared<std::int64_t>(0);
                         raw->set_on_delivered([&, last](fobs::net::Seq delivered) {
                           delivered_total += delivered - *last;
                           *last = delivered;
                           if (!done && delivered_total >= bytes) {
                             done = true;
                             done_at = sim.now();
                           }
                         });
                       });

  std::vector<std::unique_ptr<TcpConnection>> clients;
  clients.reserve(static_cast<std::size_t>(streams));
  for (int i = 0; i < streams; ++i) {
    auto client = std::make_unique<TcpConnection>(src, per_stream_config);
    auto* raw = client.get();
    const std::int64_t my_bytes = stripe_bytes[static_cast<std::size_t>(i)];
    raw->set_on_connected([raw, my_bytes] { raw->offer_bytes(my_bytes); });
    // PSockets opens its sockets sequentially; the slight stagger also
    // desynchronizes the streams' slow starts.
    sim.schedule_in(Duration::milliseconds(2) * i,
                    [raw, &dst] { raw->connect(dst.id(), kPort); });
    clients.push_back(std::move(client));
  }

  while (!done && sim.now() < deadline && sim.step()) {
  }

  if (tracer != nullptr) {
    tracer->record(done ? fobs::telemetry::EventType::kCompletion
                        : fobs::telemetry::EventType::kTimeout,
                   streams, delivered_total);
  }

  PsocketsResult result;
  result.completed = done;
  result.streams = streams;
  for (const auto& c : clients) {
    result.retransmissions += c->stats().retransmissions;
    result.timeouts += c->stats().timeouts;
  }
  if (done) {
    result.elapsed = done_at - start;
    result.goodput_mbps =
        fobs::util::rate_of(fobs::util::DataSize::bytes(bytes), result.elapsed).mbps();
  }
  return result;
}

fobs::net::TcpConfig psockets_stream_config(std::int64_t per_socket_buffer_bytes) {
  fobs::net::TcpConfig config;
  config.window_scaling = true;
  config.sack_enabled = true;
  config.recv_buffer_bytes = per_socket_buffer_bytes;
  return config;
}

}  // namespace fobs::baselines

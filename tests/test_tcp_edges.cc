// Edge-case tests for the TCP implementation surface: listener
// behaviour, incremental writes, concurrent connections, stray traffic.
#include <gtest/gtest.h>

#include <any>
#include <memory>
#include <vector>

#include "host/host.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "sim/node.h"
#include "sim/simulation.h"

namespace fobs::net {
namespace {

using host::Host;
using host::HostConfig;
using sim::LinkConfig;
using sim::Network;
using sim::Simulation;
using util::DataRate;
using util::Duration;

HostConfig named_host(const char* name) {
  HostConfig config;
  config.name = name;
  return config;
}

struct Pair {
  Simulation sim;
  Network net{sim};
  Host* a;
  Host* b;

  Pair() {
    a = &Host::create(net, named_host("a"));
    b = &Host::create(net, named_host("b"));
    LinkConfig cfg;
    cfg.rate = DataRate::megabits_per_second(100);
    cfg.propagation_delay = Duration::milliseconds(2);
    cfg.queue_capacity_bytes = 256 * 1024;
    auto& ab = net.add_link(cfg);
    auto& ba = net.add_link(cfg);
    ab.set_sink(b);
    ba.set_sink(a);
    a->set_egress(&ab);
    b->set_egress(&ba);
  }

  void run(double seconds) {
    sim.run_until(util::TimePoint::from_ns(util::Duration::from_seconds(seconds).ns()));
  }
};

TcpConfig config() {
  TcpConfig c;
  c.recv_buffer_bytes = 1 << 20;
  return c;
}

TEST(TcpEdges, ListenerIgnoresNonSynTraffic) {
  Pair world;
  int accepted = 0;
  TcpListener listener(*world.b, 5001, config(),
                       [&](std::unique_ptr<TcpConnection>) { ++accepted; });
  // A UDP datagram to the listening port must be ignored, not crash.
  UdpEndpoint udp(*world.a);
  udp.send_to(world.b->id(), 5001, 100, std::string("not tcp"));
  // A non-SYN TCP segment (stray ACK) must be ignored too.
  TcpConnection stray(*world.a, config());
  stray.connect(world.b->id(), 4999);  // nobody listens there
  world.run(0.5);
  EXPECT_EQ(accepted, 0);
}

TEST(TcpEdges, ListenerAcceptsManyConcurrentConnections) {
  Pair world;
  std::vector<std::unique_ptr<TcpConnection>> servers;
  std::int64_t total_delivered = 0;
  TcpListener listener(*world.b, 5001, config(), [&](std::unique_ptr<TcpConnection> conn) {
    auto* raw = conn.get();
    servers.push_back(std::move(conn));
    auto last = std::make_shared<Seq>(0);
    raw->set_on_delivered([&, last](Seq d) {
      total_delivered += d - *last;
      *last = d;
    });
  });

  std::vector<std::unique_ptr<TcpConnection>> clients;
  constexpr int kClients = 6;
  constexpr Seq kEach = 200'000;
  for (int i = 0; i < kClients; ++i) {
    auto client = std::make_unique<TcpConnection>(*world.a, config());
    auto* raw = client.get();
    raw->set_on_connected([raw] { raw->offer_bytes(kEach); });
    raw->connect(world.b->id(), 5001);
    clients.push_back(std::move(client));
  }
  world.run(10);
  EXPECT_EQ(servers.size(), static_cast<std::size_t>(kClients));
  EXPECT_EQ(total_delivered, kClients * kEach);
}

TEST(TcpEdges, IncrementalOfferKeepsStreaming) {
  Pair world;
  std::unique_ptr<TcpConnection> server;
  Seq delivered = 0;
  TcpListener listener(*world.b, 5001, config(), [&](std::unique_ptr<TcpConnection> conn) {
    server = std::move(conn);
    server->set_on_delivered([&](Seq d) { delivered = d; });
  });
  TcpConnection client(*world.a, config());
  client.connect(world.b->id(), 5001);
  world.run(0.2);
  // Offer in five chunks with idle gaps between them.
  for (int chunk = 0; chunk < 5; ++chunk) {
    client.offer_bytes(50'000);
    world.run(0.2 * (chunk + 2));
  }
  world.run(5);
  EXPECT_EQ(delivered, 250'000);
  EXPECT_TRUE(client.send_complete());
}

TEST(TcpEdges, MessagesInterleavedWithRawBytes) {
  Pair world;
  std::unique_ptr<TcpConnection> server;
  std::vector<int> messages;
  TcpListener listener(*world.b, 5001, config(), [&](std::unique_ptr<TcpConnection> conn) {
    server = std::move(conn);
    server->set_on_message(
        [&](const std::any& m) { messages.push_back(std::any_cast<int>(m)); });
  });
  TcpConnection client(*world.a, config());
  client.connect(world.b->id(), 5001);
  world.run(0.2);
  client.offer_bytes(10'000);      // raw
  client.send_message(5'000, 1);   // framed
  client.offer_bytes(20'000);      // raw
  client.send_message(5'000, 2);
  world.run(5);
  ASSERT_EQ(messages.size(), 2u);
  EXPECT_EQ(messages[0], 1);
  EXPECT_EQ(messages[1], 2);
  EXPECT_EQ(server->delivered_bytes(), 40'000);
}

TEST(TcpEdges, ZeroByteTransferWithCloseOnly) {
  Pair world;
  std::unique_ptr<TcpConnection> server;
  bool closed = false;
  TcpListener listener(*world.b, 5001, config(), [&](std::unique_ptr<TcpConnection> conn) {
    server = std::move(conn);
    server->set_on_peer_closed([&] { closed = true; });
  });
  TcpConnection client(*world.a, config());
  client.set_on_connected([&] { client.close(); });
  client.connect(world.b->id(), 5001);
  world.run(5);
  EXPECT_TRUE(closed);
  EXPECT_EQ(client.state(), TcpState::kDone);
}

TEST(TcpEdges, ConnectionIgnoresPacketsFromStrangers) {
  Pair world;
  std::unique_ptr<TcpConnection> server;
  TcpListener listener(*world.b, 5001, config(), [&](std::unique_ptr<TcpConnection> conn) {
    server = std::move(conn);
  });
  TcpConnection client(*world.a, config());
  client.set_on_connected([&] { client.offer_bytes(10'000); });
  client.connect(world.b->id(), 5001);
  world.run(1);
  ASSERT_NE(server, nullptr);
  // A third host's segments to the client's port must be ignored.
  auto& c = Host::create(world.net, named_host("c"));
  LinkConfig cfg;
  cfg.rate = DataRate::megabits_per_second(100);
  auto& ca = world.net.add_link(cfg);
  ca.set_sink(world.a);
  c.set_egress(&ca);
  TcpSegment forged;
  forged.flags = TcpSegment::kAck;
  forged.ack = 999'999;  // absurd ack that would corrupt state if accepted
  sim::Packet pkt;
  pkt.dst = world.a->id();
  pkt.dst_port = client.local_port();
  pkt.size_bytes = 40;
  pkt.payload = forged;
  c.send(std::move(pkt));
  world.run(2);
  EXPECT_EQ(client.acked_bytes(), 10'000);  // unaffected by the forgery
}

TEST(TcpEdges, HandshakeGivesUpAfterMaxRetries) {
  Pair world;
  // Forward link drops everything: the SYN can never arrive.
  world.a->egress()->set_loss_model(std::make_unique<sim::BernoulliLoss>(1.0),
                                    util::Rng(1));
  TcpConnection client(*world.a, config());
  client.connect(world.b->id(), 5001);
  world.run(30);
  EXPECT_EQ(client.state(), TcpState::kClosed);
}

TEST(TcpEdges, DestroyedConnectionLeavesNoPersistRetry) {
  Pair world;
  // No receive buffer: the window is zero from the SYN-ACK on, so the
  // client's offer can only wait on its persist retry.
  auto zero_window = config();
  zero_window.recv_buffer_bytes = 0;
  std::unique_ptr<TcpConnection> server;
  TcpListener listener(*world.b, 5001, zero_window,
                       [&](std::unique_ptr<TcpConnection> conn) { server = std::move(conn); });
  auto client = std::make_unique<TcpConnection>(*world.a, config());
  client->connect(world.b->id(), 5001);
  world.run(0.1);
  ASSERT_TRUE(client->established());
  client->offer_bytes(10'000);
  const auto pending = world.sim.pending_events();
  client->offer_bytes(10'000);  // a second blocked pump starts no second retry
  EXPECT_EQ(world.sim.pending_events(), pending);
  EXPECT_EQ(client->stats().data_segments_sent, 0u);
  client.reset();
  world.run(10.1);  // the retry must not call into the destroyed client
  ASSERT_NE(server, nullptr);
  EXPECT_EQ(server->delivered_bytes(), 0);
}

}  // namespace
}  // namespace fobs::net

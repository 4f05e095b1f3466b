// TransferEngine: many concurrent FOBS transfers in one process. The
// heart of the suite is the isolation test — three simultaneous
// transfers of different sizes (one under fault injection), all
// byte-identical, with per-transfer traces and results that never bleed
// into each other. Plus handle lifecycle (wait/status/cancel) for one
// and four flows, rejected options (a packet size no datagram can carry
// included), control ports leased by binding
// them, flows resolved once at submit (one timeline on a shared tracer,
// a malformed per-flow fault plan rejected before any flow or port),
// the connection acceptor, engine counters, and a flow that throws
// ending its transfer, not the process.
//
// Port block: 30000-30099 (keep clear of 29xxx = test_fobs_posix /
// test_telemetry and 31xxx = test_fault_posix).
#include <gtest/gtest.h>

#include <fcntl.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdint>
#include <span>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "fobs/object.h"
#include "fobs/posix/codec.h"
#include "fobs/posix/engine.h"
#include "net/socket.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace fobs {
namespace {

using namespace std::chrono_literals;

std::uint16_t port_base(int offset) { return static_cast<std::uint16_t>(30000 + offset); }

// ---------------------------------------------------------------------------
// Satellite: >= 3 simultaneous transfers, isolated per-session state
// ---------------------------------------------------------------------------

TEST(EngineConcurrency, ThreeSimultaneousTransfersAreByteIdenticalAndIsolated) {
  // Three pairs, mixed sizes, the middle one under 2% data corruption.
  // Six sessions run at once on one engine; every sink must match its
  // object and only the faulted pair may report corrupt drops.
  const std::vector<std::int64_t> sizes = {256 * 1024, 1024 * 1024 + 13, 512 * 1024};
  std::vector<std::vector<std::uint8_t>> objects;
  std::vector<std::vector<std::uint8_t>> sinks;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    objects.push_back(core::make_pattern(sizes[i], 0xE61 + static_cast<int>(i)));
    sinks.emplace_back(objects.back().size(), 0);
  }

  posix::TransferEngine engine({.workers = 6, .session_tracers = true});
  std::vector<posix::TransferHandle> rx;
  std::vector<posix::TransferHandle> tx;
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    posix::ReceiverOptions ropt;
    ropt.data_port = port_base(static_cast<int>(2 * i));
    ropt.control_port = port_base(static_cast<int>(2 * i + 1));
    ropt.core.ack_frequency = 16;
    ropt.endpoint.timeout_ms = 30'000;
    posix::SenderOptions sopt;
    sopt.data_port = ropt.data_port;
    sopt.control_port = ropt.control_port;
    sopt.endpoint.timeout_ms = 30'000;
    if (i == 1) sopt.endpoint.fault_plan = "seed=7;data.corrupt=0.02";
    rx.push_back(engine.submit_receive(ropt, std::span<std::uint8_t>(sinks[i])));
    tx.push_back(engine.submit_send(sopt, std::span<const std::uint8_t>(objects[i])));
  }
  ASSERT_EQ(engine.sessions_submitted(), 2 * sizes.size());

  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(rx[i].wait(), posix::TransferStatus::kCompleted)
        << "receiver " << i << ": " << rx[i].result().error;
    EXPECT_EQ(tx[i].wait(), posix::TransferStatus::kCompleted)
        << "sender " << i << ": " << tx[i].result().error;
    EXPECT_EQ(sinks[i], objects[i]) << "pair " << i << " not byte-identical";
  }
  engine.wait_idle();
  EXPECT_EQ(engine.active_sessions(), 0u);
  EXPECT_EQ(engine.sessions_completed(), 2 * sizes.size());
  EXPECT_EQ(engine.sessions_failed(), 0u);

  // Result isolation: only the faulted pair saw corruption.
  EXPECT_GT(rx[1].result().flows[0].corrupt_dropped, 0);
  EXPECT_EQ(rx[0].result().flows[0].corrupt_dropped, 0);
  EXPECT_EQ(rx[2].result().flows[0].corrupt_dropped, 0);
  // Per-pair packet counts reflect each pair's own object, not a shared
  // tally.
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    EXPECT_EQ(rx[i].result().flows[0].packets_received, (sizes[i] + 1023) / 1024)
        << "pair " << i;
  }

  // Trace isolation: six distinct engine-owned tracers, each telling
  // exactly one session's story.
  for (std::size_t i = 0; i < sizes.size(); ++i) {
    ASSERT_NE(rx[i].tracer(), nullptr);
    ASSERT_NE(tx[i].tracer(), nullptr);
    EXPECT_NE(rx[i].tracer(), tx[i].tracer());
    EXPECT_EQ(rx[i].tracer()->count(telemetry::EventType::kTransferStart), 1);
    EXPECT_EQ(tx[i].tracer()->count(telemetry::EventType::kTransferStart), 1);
    EXPECT_GE(rx[i].tracer()->count(telemetry::EventType::kCompletion), 1);
    EXPECT_EQ(rx[i].tracer()->count(telemetry::EventType::kTimeout), 0);
  }
  EXPECT_NE(rx[0].tracer(), rx[1].tracer());
  EXPECT_NE(rx[1].tracer(), rx[2].tracer());
}

// ---------------------------------------------------------------------------
// Handle lifecycle
// ---------------------------------------------------------------------------

TEST(EngineHandle, IdsAreUniqueAndStatusTurnsTerminal) {
  const auto object = core::make_pattern(64 * 1024, 0x1D5);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions ropt;
  ropt.data_port = port_base(20);
  ropt.control_port = port_base(21);
  ropt.endpoint.timeout_ms = 30'000;
  posix::SenderOptions sopt;
  sopt.data_port = ropt.data_port;
  sopt.control_port = ropt.control_port;
  sopt.endpoint.timeout_ms = 30'000;

  posix::TransferEngine engine({.workers = 2});
  auto rx = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  auto tx = engine.submit_send(sopt, std::span<const std::uint8_t>(object));
  ASSERT_TRUE(rx.valid());
  ASSERT_TRUE(tx.valid());
  EXPECT_NE(rx.id(), tx.id());
  EXPECT_FALSE(rx.result().is_sender);
  EXPECT_TRUE(tx.result().is_sender);

  EXPECT_TRUE(rx.wait_for(std::chrono::milliseconds(30'000)));
  EXPECT_EQ(tx.wait(), posix::TransferStatus::kCompleted);
  EXPECT_TRUE(rx.done());
  EXPECT_TRUE(tx.done());
  EXPECT_TRUE(tx.result().completed());
  EXPECT_TRUE(rx.result().completed());
  EXPECT_EQ(sink, object);
  // Results outlive the engine through the handle.
  EXPECT_EQ(to_string(rx.status()), std::string("completed"));
}

TEST(EngineHandle, CancelStopsAWaitingSession) {
  // A receiver with no sender would otherwise wait out its full
  // 30-second timeout; cancel() must end it promptly.
  std::vector<std::uint8_t> sink(64 * 1024, 0);
  posix::ReceiverOptions ropt;
  ropt.data_port = port_base(24);
  ropt.control_port = port_base(25);
  ropt.endpoint.timeout_ms = 30'000;

  posix::TransferEngine engine({.workers = 1});
  auto handle = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  const auto start = std::chrono::steady_clock::now();
  // Let the session actually start before cancelling it.
  while (handle.status() == posix::TransferStatus::kPending &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handle.cancel();
  const auto status = handle.wait();
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_EQ(status, posix::TransferStatus::kCancelled);
  EXPECT_FALSE(handle.result().completed());
  EXPECT_LT(elapsed, 10'000) << "cancel should not wait out the 30 s timeout";
}

TEST(EngineHandle, AFlowThatThrowsEndsItsTransferNotTheProcess) {
  // A write-behind sink that throws on the first finished window: the
  // receive ends kSocketError with the exception's message, and a
  // transfer running beside it on the same engine completes.
  struct ThrowingSink final : core::WriteBehindSink {
    void written(std::span<const std::uint8_t> /*bytes*/) override {
      throw std::runtime_error("sink failed");
    }
  } sink;
  const auto object = core::make_pattern(512 * 1024, 0xE7);
  std::vector<std::uint8_t> doomed(object.size(), 0);
  std::vector<std::uint8_t> healthy(object.size(), 0);

  posix::TransferEngine engine({.workers = 4});
  std::vector<posix::TransferHandle> rx;
  std::vector<posix::TransferHandle> tx;
  for (int i = 0; i < 2; ++i) {
    posix::ReceiverOptions ropt;
    ropt.data_port = port_base(50 + 2 * i);
    ropt.control_port = port_base(51 + 2 * i);
    ropt.endpoint.timeout_ms = 30'000;
    posix::SenderOptions sopt;
    sopt.data_port = ropt.data_port;
    sopt.control_port = ropt.control_port;
    sopt.endpoint.timeout_ms = 30'000;
    auto& buffer = i == 0 ? doomed : healthy;
    rx.push_back(engine.submit_receive(ropt, std::span<std::uint8_t>(buffer), {},
                                       i == 0 ? &sink : nullptr));
    tx.push_back(engine.submit_send(sopt, std::span<const std::uint8_t>(object)));
  }
  EXPECT_EQ(rx[0].wait(), posix::TransferStatus::kSocketError);
  EXPECT_EQ(rx[0].result().error, "sink failed");
  tx[0].cancel();  // its receiver is gone for good
  EXPECT_EQ(rx[1].wait(), posix::TransferStatus::kCompleted) << rx[1].result().error;
  EXPECT_EQ(tx[1].wait(), posix::TransferStatus::kCompleted) << tx[1].result().error;
  EXPECT_EQ(healthy, object);
  engine.wait_idle();
  EXPECT_EQ(engine.active_sessions(), 0u);
}

TEST(EngineHandle, BadOptionsSessionTurnsTerminalWithBadOptions) {
  std::vector<std::uint8_t> sink(1024, 0);
  posix::TransferEngine engine({.workers = 1});
  auto handle = engine.submit_receive(posix::ReceiverOptions{},  // no ports
                                      std::span<std::uint8_t>(sink));
  EXPECT_EQ(handle.wait(), posix::TransferStatus::kBadOptions);
  EXPECT_FALSE(handle.result().error.empty());
  engine.wait_idle();
  EXPECT_EQ(engine.sessions_failed(), 1u);
  EXPECT_EQ(engine.sessions_completed(), 0u);
}

TEST(EngineHandle, PacketSizeNoDatagramCanCarryIsBadOptions) {
  std::vector<std::uint8_t> object(64 * 1024, 0x5A);
  posix::TransferEngine engine({.workers = 1});
  for (const std::int64_t packet_bytes : {std::int64_t{0}, posix::kMaxPacketBytes + 1}) {
    posix::ReceiverOptions ropt;
    ropt.data_port = port_base(32);
    ropt.control_port = port_base(33);
    ropt.endpoint.packet_bytes = packet_bytes;
    auto rx = engine.submit_receive(ropt, std::span<std::uint8_t>(object));
    EXPECT_EQ(rx.wait(), posix::TransferStatus::kBadOptions) << packet_bytes;
    EXPECT_NE(rx.result().error.find("packet_bytes"), std::string::npos) << rx.result().error;
    EXPECT_EQ(rx.result().stripes, 0);

    posix::SenderOptions sopt;
    sopt.data_port = port_base(32);
    sopt.control_port = port_base(33);
    sopt.endpoint.packet_bytes = packet_bytes;
    auto tx = engine.submit_send(sopt, std::span<const std::uint8_t>(object));
    EXPECT_EQ(tx.wait(), posix::TransferStatus::kBadOptions) << packet_bytes;
    EXPECT_NE(tx.result().error.find("packet_bytes"), std::string::npos) << tx.result().error;
  }
  EXPECT_EQ(engine.sessions_submitted(), 0u);

  // The largest payload one datagram carries is accepted: the flow runs
  // until cancelled.
  posix::ReceiverOptions largest;
  largest.data_port = port_base(32);
  largest.control_port = port_base(33);
  largest.endpoint.packet_bytes = posix::kMaxPacketBytes;
  auto rx = engine.submit_receive(largest, std::span<std::uint8_t>(object));
  rx.cancel();
  EXPECT_EQ(rx.wait(), posix::TransferStatus::kCancelled);
  EXPECT_EQ(engine.sessions_submitted(), 1u);
}

TEST(EngineHandle, InvalidHandleAccessorsAreSafe) {
  // A default-constructed handle has no session; every accessor must
  // degrade gracefully instead of dereferencing null.
  posix::TransferHandle handle;
  EXPECT_FALSE(handle.valid());
  EXPECT_EQ(handle.id(), 0u);
  EXPECT_EQ(handle.status(), posix::TransferStatus::kPending);
  EXPECT_FALSE(handle.done());
  EXPECT_FALSE(handle.wait_for(std::chrono::milliseconds(1)));
  EXPECT_EQ(handle.tracer(), nullptr);
  handle.cancel();  // no-op
  EXPECT_FALSE(handle.result().completed());
  EXPECT_TRUE(handle.result().error.empty());
}

TEST(EngineLifecycle, DestructorCancelsLiveSessions) {
  // An engine with a stuck session must tear down promptly instead of
  // waiting out the session's timeout.
  std::vector<std::uint8_t> sink(64 * 1024, 0);
  posix::ReceiverOptions ropt;
  ropt.data_port = port_base(28);
  ropt.control_port = port_base(29);
  ropt.endpoint.timeout_ms = 30'000;

  posix::TransferHandle handle;
  const auto start = std::chrono::steady_clock::now();
  {
    posix::TransferEngine engine({.workers = 1});
    handle = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  }
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.status(), posix::TransferStatus::kCancelled);
  EXPECT_LT(elapsed, 10'000);
}

// ---------------------------------------------------------------------------
// One handle per transfer, for any flow count
// ---------------------------------------------------------------------------

TEST(EngineHandle, OneHandleWaitsOnAndReportsAFourFlowTransfer) {
  constexpr std::int64_t kPacketBytes = 8 * 1024;
  const auto object = core::make_pattern(2 * 1024 * 1024 + 77, 0x4F10);
  std::vector<std::uint8_t> sink(object.size(), 0);
  posix::ReceiverOptions ropt;
  ropt.data_port = port_base(60);  // and 61..63
  ropt.control_port = port_base(64);  // and 65..67
  ropt.endpoint.packet_bytes = kPacketBytes;
  ropt.endpoint.timeout_ms = 30'000;
  ropt.stripes = 4;
  posix::SenderOptions sopt;
  sopt.data_port = ropt.data_port;
  sopt.control_port = ropt.control_port;
  sopt.endpoint.packet_bytes = kPacketBytes;
  sopt.endpoint.timeout_ms = 30'000;
  sopt.stripes = 4;

  posix::TransferHandle rx;
  posix::TransferHandle tx;
  {
    posix::TransferEngine engine({.workers = 8, .session_tracers = true});
    rx = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
    tx = engine.submit_send(sopt, std::span<const std::uint8_t>(object));
    EXPECT_EQ(rx.wait(), posix::TransferStatus::kCompleted) << rx.result().error;
    EXPECT_EQ(tx.wait(), posix::TransferStatus::kCompleted) << tx.result().error;
    engine.wait_idle();
    // Eight flow sessions, two transfers.
    EXPECT_EQ(engine.sessions_submitted(), 8u);
    EXPECT_EQ(engine.sessions_completed(), 2u);
    EXPECT_EQ(engine.sessions_failed(), 0u);
  }
  // Results and per-flow tracers outlive the engine.
  EXPECT_EQ(sink, object);
  const auto& received = rx.result();
  EXPECT_FALSE(received.is_sender);
  EXPECT_EQ(received.stripes, 4);
  EXPECT_EQ(received.stripes_completed, 4);
  ASSERT_EQ(received.flows.size(), 4u);
  std::int64_t packets = 0;
  for (const auto& flow : received.flows) {
    EXPECT_TRUE(flow.completed());
    // A receive's flows keep no send-side counters.
    EXPECT_EQ(flow.packets_needed, 0);
    EXPECT_EQ(flow.packets_sent, 0);
    packets += flow.packets_received;
  }
  const auto object_bytes = static_cast<std::int64_t>(object.size());
  EXPECT_EQ(packets, (object_bytes + kPacketBytes - 1) / kPacketBytes);
  EXPECT_GT(received.goodput_mbps, 0.0);
  EXPECT_TRUE(tx.result().is_sender);
  ASSERT_EQ(tx.result().flows.size(), 4u);
  for (const auto& flow : tx.result().flows) EXPECT_EQ(flow.packets_received, 0);
  for (int flow = 0; flow < 4; ++flow) {
    ASSERT_NE(rx.tracer(flow), nullptr) << flow;
    EXPECT_EQ(rx.tracer(flow)->count(telemetry::EventType::kTransferStart), 1) << flow;
    if (flow > 0) {
      EXPECT_NE(rx.tracer(flow), rx.tracer(flow - 1));
    }
  }
  EXPECT_EQ(rx.tracer(4), nullptr);
  EXPECT_EQ(rx.tracer(-1), nullptr);
}

TEST(EngineHandle, CancelEndsEveryFlowOfAFourFlowReceive) {
  // No sender: every flow would wait out the 30-second timeout.
  std::vector<std::uint8_t> sink(64 * 1024, 0);
  posix::ReceiverOptions ropt;
  ropt.data_port = port_base(70);  // and 71..73
  ropt.control_port = port_base(74);  // and 75..77
  ropt.endpoint.timeout_ms = 30'000;
  ropt.stripes = 4;

  posix::TransferEngine engine({.workers = 4});
  auto handle = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  const auto start = std::chrono::steady_clock::now();
  while (handle.status() == posix::TransferStatus::kPending &&
         std::chrono::steady_clock::now() - start < std::chrono::seconds(5)) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  handle.cancel();
  EXPECT_EQ(handle.wait(), posix::TransferStatus::kCancelled);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_LT(elapsed, 10'000) << "cancel should not wait out the 30 s timeout";
  const auto& result = handle.result();
  ASSERT_EQ(result.flows.size(), 4u);
  for (const auto& flow : result.flows) {
    EXPECT_EQ(flow.status, posix::TransferStatus::kCancelled);
  }
  EXPECT_EQ(result.stripes_completed, 0);
}

TEST(EngineHandle, FourFlowSubmitWithZeroPortsLaunchesNoFlow) {
  std::vector<std::uint8_t> sink(64 * 1024, 0);
  posix::ReceiverOptions ropt;  // no ports
  ropt.stripes = 4;
  auto& launched =
      telemetry::MetricsRegistry::global().counter("fobs.engine.sessions_submitted");
  const auto launched_before = launched.value();
  int exits = 0;
  posix::SessionParams params;
  params.on_exit = [&exits](const posix::TransferHandle& handle) {
    ++exits;
    EXPECT_TRUE(handle.done());
  };

  posix::TransferEngine engine({.workers = 4});
  auto handle = engine.submit_receive(ropt, std::span<std::uint8_t>(sink), std::move(params));
  ASSERT_TRUE(handle.valid());
  EXPECT_TRUE(handle.done()) << "rejected before any flow exists";
  EXPECT_EQ(handle.wait(), posix::TransferStatus::kBadOptions);
  const auto& error = handle.result().error;
  EXPECT_NE(error.find("data_port"), std::string::npos) << error;
  EXPECT_EQ(handle.result().stripes, 0);
  EXPECT_TRUE(handle.result().flows.empty());
  EXPECT_EQ(handle.tracer(0), nullptr);
  EXPECT_EQ(exits, 1);
  EXPECT_EQ(engine.sessions_submitted(), 0u);
  EXPECT_EQ(launched.value(), launched_before);
  EXPECT_EQ(engine.active_sessions(), 0u);
  EXPECT_EQ(engine.sessions_failed(), 1u);
}

// ---------------------------------------------------------------------------
// Control ports: a lease is a bound listener
// ---------------------------------------------------------------------------

TEST(EngineControlPorts, SendOnAHeldControlPortFailsNamingItAndLaunchesNoFlow) {
  // Another socket holds the control port. The send cannot bind its
  // listener, so it ends kSocketError naming the port before any flow
  // launches, instead of a flow waiting out its whole timeout.
  const fobs::net::Fd holder = fobs::net::listen_tcp(port_base(42), 4);
  ASSERT_TRUE(holder.valid());
  const auto object = core::make_pattern(64 * 1024, 0xB05);
  posix::SenderOptions sopt;
  sopt.data_port = port_base(45);
  sopt.control_port = port_base(42);
  sopt.endpoint.timeout_ms = 30'000;
  auto& launched =
      telemetry::MetricsRegistry::global().counter("fobs.engine.sessions_submitted");
  const auto launched_before = launched.value();

  const auto blocking = posix::send_object(sopt, object);
  EXPECT_EQ(blocking.status, posix::TransferStatus::kSocketError);
  EXPECT_NE(blocking.error.find(std::to_string(port_base(42))), std::string::npos)
      << blocking.error;
  EXPECT_EQ(blocking.stripes, 0);
  EXPECT_EQ(launched.value(), launched_before);

  // Two flows on [41, 42]: 41 binds, 42 is held, so the block is
  // released whole and the handle is terminal on return.
  posix::TransferEngine engine({.workers = 2});
  sopt.control_port = port_base(41);
  sopt.stripes = 2;
  auto handle = engine.submit_send(sopt, object);
  EXPECT_TRUE(handle.done());
  EXPECT_EQ(handle.wait(), posix::TransferStatus::kSocketError);
  EXPECT_NE(handle.result().error.find(std::to_string(port_base(42))), std::string::npos)
      << handle.result().error;
  EXPECT_EQ(engine.sessions_submitted(), 0u);
  EXPECT_EQ(engine.sessions_failed(), 1u);
  EXPECT_EQ(launched.value(), launched_before);
  EXPECT_TRUE(fobs::net::listen_tcp(port_base(41), 1).valid()) << "port 41 left bound";
}

TEST(EngineControlPorts, HandedListenerCountOtherThanTheFlowCountIsBadOptions) {
  const auto object = core::make_pattern(64 * 1024, 0xB06);
  posix::SenderOptions sopt;
  sopt.data_port = port_base(45);
  sopt.control_port = port_base(43);
  sopt.stripes = 2;
  posix::SessionParams params;
  params.control_listeners = fobs::net::listen_tcp_block(port_base(43), 1);
  ASSERT_EQ(params.control_listeners.size(), 1u);

  posix::TransferEngine engine({.workers = 2});
  auto handle = engine.submit_send(sopt, object, std::move(params));
  EXPECT_EQ(handle.wait(), posix::TransferStatus::kBadOptions);
  EXPECT_NE(handle.result().error.find("control listeners"), std::string::npos)
      << handle.result().error;
  EXPECT_EQ(engine.sessions_submitted(), 0u);
  EXPECT_TRUE(fobs::net::listen_tcp(port_base(43), 1).valid())
      << "a rejected transfer closes the listeners it was handed";
}

TEST(EngineControlPorts, FlowPortsBindAgainOnceTheTransferIsDoneWhileItsHandleIsHeld) {
  const auto object = core::make_pattern(256 * 1024 + 3, 0xB07);
  std::vector<std::uint8_t> sink(object.size(), 0);
  posix::ReceiverOptions ropt;
  ropt.data_port = port_base(46);     // and 47
  ropt.control_port = port_base(48);  // and 49
  ropt.stripes = 2;
  ropt.endpoint.timeout_ms = 30'000;
  posix::SenderOptions sopt;
  sopt.data_port = ropt.data_port;
  sopt.control_port = ropt.control_port;
  sopt.stripes = 2;
  sopt.endpoint.timeout_ms = 30'000;

  posix::TransferEngine engine({.workers = 4});
  auto rx = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  auto tx = engine.submit_send(sopt, std::span<const std::uint8_t>(object));
  ASSERT_EQ(tx.wait(), posix::TransferStatus::kCompleted) << tx.result().error;
  ASSERT_EQ(rx.wait(), posix::TransferStatus::kCompleted) << rx.result().error;
  EXPECT_EQ(sink, object);
  // Both handles are still held; neither keeps a control port bound.
  for (int flow = 0; flow < 2; ++flow) {
    EXPECT_TRUE(fobs::net::listen_tcp(port_base(48 + flow), 1).valid()) << "flow " << flow;
  }
}

// ---------------------------------------------------------------------------
// Flows are resolved once, at submit
// ---------------------------------------------------------------------------

TEST(EngineFlows, SharedTracerGetsOneClockAndOneTransferStart) {
  // Every flow of each side shares the caller's tracer, as fetch_file's
  // do. The engine installs its clock and records transfer_start once
  // per transfer, so the shared tracer holds one timeline.
  const auto object = core::make_pattern(1024 * 1024 + 5, 0xC01);
  std::vector<std::uint8_t> sink(object.size(), 0);
  telemetry::EventTracer rx_trace;
  telemetry::EventTracer tx_trace;
  posix::ReceiverOptions ropt;
  ropt.data_port = port_base(80);     // and 81..83
  ropt.control_port = port_base(84);  // and 85..87
  ropt.stripes = 4;
  ropt.endpoint.timeout_ms = 30'000;
  ropt.endpoint.tracer = &rx_trace;
  posix::SenderOptions sopt;
  sopt.data_port = ropt.data_port;
  sopt.control_port = ropt.control_port;
  sopt.stripes = 4;
  sopt.endpoint.timeout_ms = 30'000;
  sopt.endpoint.tracer = &tx_trace;

  posix::TransferEngine engine({.workers = 8});
  auto rx = engine.submit_receive(ropt, std::span<std::uint8_t>(sink));
  auto tx = engine.submit_send(sopt, std::span<const std::uint8_t>(object));
  ASSERT_EQ(rx.wait(), posix::TransferStatus::kCompleted) << rx.result().error;
  ASSERT_EQ(tx.wait(), posix::TransferStatus::kCompleted) << tx.result().error;
  EXPECT_EQ(sink, object);

  const std::int64_t packets = (static_cast<std::int64_t>(object.size()) + 1023) / 1024;
  const std::pair<const posix::TransferHandle*, const telemetry::EventTracer*> sides[] = {
      {&rx, &rx_trace}, {&tx, &tx_trace}};
  for (const auto& [handle, trace] : sides) {
    for (int flow = 0; flow < 4; ++flow) EXPECT_EQ(handle->tracer(flow), trace) << flow;
    EXPECT_EQ(trace->count(telemetry::EventType::kTransferStart), 1);
    const auto events = trace->snapshot();
    ASSERT_FALSE(events.empty());
    EXPECT_EQ(events.front().type, telemetry::EventType::kTransferStart);
    EXPECT_EQ(events.front().value, packets) << "transfer_start carries the object's packets";
    const auto backwards = std::adjacent_find(
        events.begin(), events.end(),
        [](const telemetry::Event& a, const telemetry::Event& b) { return b.t_ns < a.t_ns; });
    EXPECT_EQ(backwards, events.end())
        << "timestamp goes backwards at event " << (backwards - events.begin());
  }
}

TEST(EngineFlows, MalformedPerFlowFaultPlanLaunchesNoFlowAndBindsNoPort) {
  const auto object = core::make_pattern(64 * 1024, 0xC02);
  posix::SenderOptions sopt;
  sopt.data_port = port_base(90);     // and 91
  sopt.control_port = port_base(88);  // and 89
  sopt.stripes = 2;
  sopt.endpoint.timeout_ms = 30'000;
  sopt.stripe_fault_plans = {"", "data.corrupt=2.0"};
  auto& launched =
      telemetry::MetricsRegistry::global().counter("fobs.engine.sessions_submitted");
  const auto launched_before = launched.value();

  posix::TransferEngine engine({.workers = 2});
  auto handle = engine.submit_send(sopt, object);
  EXPECT_TRUE(handle.done()) << "rejected at submit, before any flow exists";
  EXPECT_EQ(handle.status(), posix::TransferStatus::kBadOptions);
  const auto& error = handle.result().error;
  EXPECT_NE(error.find("invalid fault plan"), std::string::npos) << error;
  EXPECT_NE(error.find("stripe 1"), std::string::npos) << error;
  EXPECT_EQ(handle.result().stripes, 0);
  EXPECT_EQ(engine.sessions_submitted(), 0u);
  EXPECT_EQ(launched.value(), launched_before);
  for (int flow = 0; flow < 2; ++flow) {
    EXPECT_TRUE(fobs::net::listen_tcp(port_base(88 + flow), 1).valid())
        << "control port of flow " << flow << " was bound";
  }
}


// ---------------------------------------------------------------------------
// Acceptor: each connection's handler owns its socket
// ---------------------------------------------------------------------------

TEST(EngineAcceptor, HandlerOwnsANonBlockingSocketThatClosesWhenDropped) {
  posix::TransferEngine engine({.workers = 2});
  std::atomic<int> handled{0};
  std::atomic<bool> nonblocking{false};
  std::string peer;
  ASSERT_TRUE(engine.start_acceptor(port_base(95), [&](fobs::net::Fd fd, std::string host) {
    nonblocking = (::fcntl(fd.get(), F_GETFL, 0) & O_NONBLOCK) != 0;
    peer = std::move(host);
    const std::uint8_t line[] = {'h', 'i', '\n'};
    fobs::net::send_all(fd.get(), line, sizeof line, std::chrono::steady_clock::now() + 5s);
    ++handled;
  }));  // returning drops `fd`, which closes the connection
  EXPECT_TRUE(engine.acceptor_running());
  EXPECT_FALSE(engine.start_acceptor(port_base(96), [](fobs::net::Fd, std::string) {}))
      << "one acceptor per engine";

  const auto deadline = std::chrono::steady_clock::now() + 5s;
  fobs::net::Fd client = fobs::net::connect_with_backoff("127.0.0.1", port_base(95), deadline);
  ASSERT_TRUE(client.valid());
  std::string line;
  ASSERT_TRUE(fobs::net::recv_line(client.get(), deadline, line));
  EXPECT_EQ(line, "hi");
  // The handler returned: its dropped Fd closed the connection.
  std::vector<std::uint8_t> rest;
  bool closed = false;
  while (!closed && std::chrono::steady_clock::now() < deadline) {
    closed = fobs::net::read_closed(client.get(), rest);
    EXPECT_TRUE(rest.empty());
    if (!closed) std::this_thread::sleep_for(5ms);
  }
  EXPECT_TRUE(closed) << "the connection outlived its handler";
  engine.stop_acceptor();
  EXPECT_FALSE(engine.acceptor_running());
  EXPECT_EQ(handled.load(), 1);
  EXPECT_TRUE(nonblocking.load()) << "the handler's socket must be non-blocking";
  EXPECT_EQ(peer, "127.0.0.1");
}

}  // namespace
}  // namespace fobs

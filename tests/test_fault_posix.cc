// Crash-resilience tests over real loopback sockets: option validation,
// garbage-datagram tolerance, checksum rejection, stall-based give-up,
// and the checkpoint/resume path (kill the receiver mid-transfer,
// restart it from the sidecar, and check that both ends ran the resume
// handshake).
#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.h"
#include "fobs/object.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/codec.h"
#include "fobs/posix/engine.h"
#include "fobs/posix/posix_transfer.h"
#include "net/socket.h"
#include "telemetry/metrics.h"
#include "telemetry/trace.h"

namespace fobs {
namespace {

// Distinct port bases per test to avoid rebind races (keep clear of
// test_fobs_posix.cc's 29xxx block).
std::uint16_t port_base(int offset) { return static_cast<std::uint16_t>(31000 + offset); }

// ---------------------------------------------------------------------------
// Option validation (no sockets touched)
// ---------------------------------------------------------------------------

TEST(FaultPosixValidation, SenderRejectsBadOptions) {
  const std::vector<std::uint8_t> object(1024, 0xAA);

  posix::SenderOptions no_ports;
  auto result = posix::send_object(no_ports, object);
  EXPECT_EQ(result.status, posix::TransferStatus::kBadOptions);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("data_port"), std::string::npos) << result.error;

  posix::SenderOptions bad_packet;
  bad_packet.data_port = port_base(0);
  bad_packet.control_port = port_base(1);
  bad_packet.endpoint.packet_bytes = 0;
  result = posix::send_object(bad_packet, object);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("packet_bytes"), std::string::npos) << result.error;

  posix::SenderOptions empty_object;
  empty_object.data_port = port_base(0);
  empty_object.control_port = port_base(1);
  result = posix::send_object(empty_object, {});
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("empty object"), std::string::npos) << result.error;
}

TEST(FaultPosixValidation, ReceiverRejectsBadOptions) {
  std::vector<std::uint8_t> sink(1024, 0);

  posix::ReceiverOptions no_ports;
  auto result = posix::receive_object(no_ports, sink);
  EXPECT_EQ(result.status, posix::TransferStatus::kBadOptions);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("data_port"), std::string::npos) << result.error;

  posix::ReceiverOptions bad_packet;
  bad_packet.data_port = port_base(2);
  bad_packet.control_port = port_base(3);
  bad_packet.endpoint.packet_bytes = -5;
  result = posix::receive_object(bad_packet, sink);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("packet_bytes"), std::string::npos) << result.error;

  posix::ReceiverOptions empty_buffer;
  empty_buffer.data_port = port_base(2);
  empty_buffer.control_port = port_base(3);
  result = posix::receive_object(empty_buffer, {});
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("empty buffer"), std::string::npos) << result.error;
}

TEST(FaultPosixValidation, MalformedFaultPlanIsReportedNotIgnored) {
  const std::vector<std::uint8_t> object(1024, 0xAA);
  posix::SenderOptions options;
  options.data_port = port_base(4);
  options.control_port = port_base(5);
  options.endpoint.fault_plan = "data.corrupt=2.0";
  const auto result = posix::send_object(options, object);
  EXPECT_EQ(result.status, posix::TransferStatus::kBadOptions);
  EXPECT_FALSE(result.completed());
  EXPECT_NE(result.error.find("invalid fault plan"), std::string::npos) << result.error;
}

/// Sets an environment variable for one scope and unsets it on exit.
class ScopedEnv {
 public:
  ScopedEnv(const char* name, const char* value) : name_(name) { ::setenv(name, value, 1); }
  ~ScopedEnv() { ::unsetenv(name_); }
  ScopedEnv(const ScopedEnv&) = delete;
  ScopedEnv& operator=(const ScopedEnv&) = delete;

 private:
  const char* name_;
};

TEST(FaultPosixValidation, MalformedEnvFaultPlanIsRejectedAtSubmit) {
  const ScopedEnv env("FOBS_FAULT_PLAN", "data.corrupt=2.0");
  const std::vector<std::uint8_t> object(1024, 0xAA);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::TransferEngine engine({.workers = 2});
  posix::SenderOptions send_opts;
  send_opts.data_port = port_base(40);
  send_opts.control_port = port_base(41);
  auto tx = engine.submit_send(send_opts, object);
  EXPECT_TRUE(tx.done()) << "rejected at submit, before any flow exists";
  EXPECT_EQ(tx.status(), posix::TransferStatus::kBadOptions);
  EXPECT_NE(tx.result().error.find("invalid fault plan"), std::string::npos)
      << tx.result().error;
  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(40);
  recv_opts.control_port = port_base(41);
  auto rx = engine.submit_receive(recv_opts, sink);
  EXPECT_TRUE(rx.done());
  EXPECT_EQ(rx.status(), posix::TransferStatus::kBadOptions);
  EXPECT_NE(rx.result().error.find("invalid fault plan"), std::string::npos)
      << rx.result().error;
  EXPECT_EQ(engine.sessions_submitted(), 0u);

  // A plan in the options takes precedence: the environment is not read.
  recv_opts.endpoint.fault_plan = "seed=3";
  recv_opts.endpoint.timeout_ms = 30'000;
  auto launched = engine.submit_receive(recv_opts, sink);
  EXPECT_EQ(engine.sessions_submitted(), 1u);
  launched.cancel();
  EXPECT_EQ(launched.wait(), posix::TransferStatus::kCancelled) << launched.result().error;
}

TEST(FaultPosixValidation, ControlFaultsAreRejectedAtSubmit) {
  // No POSIX flow loop perturbs the TCP control stream, so a plan asking
  // for control faults would run clean; it is refused instead.
  const std::vector<std::uint8_t> object(1024, 0xAA);
  std::vector<std::uint8_t> sink(object.size(), 0);
  posix::TransferEngine engine({.workers = 2});
  posix::SenderOptions send_opts;
  send_opts.data_port = port_base(42);
  send_opts.control_port = port_base(43);
  send_opts.endpoint.fault_plan = "seed=1;control.drop=1";
  auto tx = engine.submit_send(send_opts, object);
  EXPECT_TRUE(tx.done()) << "rejected at submit, before any flow exists";
  EXPECT_EQ(tx.status(), posix::TransferStatus::kBadOptions);
  EXPECT_NE(tx.result().error.find(
                "invalid fault plan: control.* faults apply only in the simulator"),
            std::string::npos)
      << tx.result().error;
  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(42);
  recv_opts.control_port = port_base(43);
  recv_opts.endpoint.fault_plan = "control.blackhole=0+4";
  auto rx = engine.submit_receive(recv_opts, sink);
  EXPECT_TRUE(rx.done());
  EXPECT_EQ(rx.status(), posix::TransferStatus::kBadOptions);
  EXPECT_NE(rx.result().error.find("control.* faults apply only in the simulator"),
            std::string::npos)
      << rx.result().error;
  EXPECT_EQ(engine.sessions_submitted(), 0u);
}

// ---------------------------------------------------------------------------
// Stall-based give-up
// ---------------------------------------------------------------------------

TEST(FaultPosixStall, SenderGivesUpAfterEmptyIntervalsWithStallTrace) {
  // No receiver exists: zero progress. The sender must die through the
  // stall budget — kStallIntervals stall events, then the timeout —
  // in about timeout_ms, not hang.
  const auto object = core::make_pattern(64 * 1024, 0xBEEF);
  telemetry::EventTracer trace;
  posix::SenderOptions options;
  options.data_port = port_base(6);
  options.control_port = port_base(7);
  options.endpoint.timeout_ms = 1'000;
  options.endpoint.tracer = &trace;

  const auto start = std::chrono::steady_clock::now();
  const auto result = posix::send_object(options, object);
  const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                           std::chrono::steady_clock::now() - start)
                           .count();
  EXPECT_FALSE(result.completed());
  EXPECT_EQ(result.status, posix::TransferStatus::kTimeout);
  EXPECT_EQ(result.error, "timeout");
  EXPECT_LT(elapsed, options.endpoint.timeout_ms + 5'000);
  EXPECT_EQ(trace.count(telemetry::EventType::kStall), core::kStallIntervals);
  const auto events = trace.snapshot();
  ASSERT_GE(events.size(), 2u);
  EXPECT_EQ(events[events.size() - 2].type, telemetry::EventType::kStall);
  EXPECT_EQ(events.back().type, telemetry::EventType::kTimeout);
}

// ---------------------------------------------------------------------------
// Live-transfer harness
// ---------------------------------------------------------------------------

struct TransferPair {
  posix::FlowResult sender;
  posix::FlowResult receiver;
};

/// Runs one sender/receiver pair to completion on loopback.
TransferPair run_pair(const posix::SenderOptions& send_opts,
                      const posix::ReceiverOptions& recv_opts,
                      std::span<const std::uint8_t> object, std::span<std::uint8_t> sink) {
  TransferPair out;
  std::thread receiver_thread(
      [&] { out.receiver = posix::receive_object(recv_opts, sink).flows.at(0); });
  out.sender = posix::send_object(send_opts, object).flows.at(0);
  receiver_thread.join();
  return out;
}

// ---------------------------------------------------------------------------
// Garbage datagrams (satellite: protocol sockets must shrug them off)
// ---------------------------------------------------------------------------

TEST(FaultPosixGarbage, TransferSurvivesGarbageDatagramsAndCorruptAcks) {
  const std::int64_t object_bytes = 256 * 1024;
  const std::int64_t packet_bytes = 1024;
  const auto object = core::make_pattern(object_bytes, 0xF00D);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(10);
  recv_opts.control_port = port_base(11);
  recv_opts.endpoint.packet_bytes = packet_bytes;
  recv_opts.core.ack_frequency = 4;
  recv_opts.endpoint.timeout_ms = 30'000;
  // Most outgoing ACKs are corrupted in flight: the sender's decoder
  // must reject and count them while the transfer still completes off
  // the clean minority plus the completion signal.
  recv_opts.endpoint.fault_plan = "seed=3;ack.corrupt=0.9";

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.packet_bytes = packet_bytes;
  send_opts.endpoint.timeout_ms = 30'000;

  // A hostile neighbour sprays junk at the receiver's data port for the
  // whole transfer: random blobs, wrong-magic headers, truncated
  // packets, and valid-looking headers with out-of-range sequences.
  std::atomic<bool> stop{false};
  std::thread garbage_thread([&] {
    const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in to{};
    to.sin_family = AF_INET;
    to.sin_port = htons(recv_opts.data_port);
    ::inet_pton(AF_INET, "127.0.0.1", &to.sin_addr);
    util::Rng rng(0xBAD);
    std::vector<std::uint8_t> junk(512);
    while (!stop.load(std::memory_order_relaxed)) {
      for (auto& byte : junk) byte = static_cast<std::uint8_t>(rng.next());
      // 1/4 of the junk gets a valid magic+type so it reaches the
      // deeper validation layers (bad seq, truncated payload, bad CRC).
      if (rng.next() % 4 == 0) {
        posix::encode_data_header(
            posix::DataHeader{static_cast<core::PacketSeq>(rng.next() % 4096), 0},
            junk.data());
      }
      const std::size_t len = 1 + static_cast<std::size_t>(rng.next() % junk.size());
      ::sendto(fd, junk.data(), len, 0, reinterpret_cast<sockaddr*>(&to), sizeof to);
      std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    ::close(fd);
  });

  const auto pair = run_pair(send_opts, recv_opts, object, sink);
  stop.store(true);
  garbage_thread.join();

  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  ASSERT_TRUE(pair.sender.completed()) << pair.sender.error;
  EXPECT_EQ(sink, object);  // garbage never landed in the object
  // The corrupted ACKs were seen and rejected, not silently accepted.
  EXPECT_GT(pair.sender.corrupt_dropped, 0);
}

TEST(FaultPosixGarbage, CorruptedDataPacketsAreRejectedAndResent) {
  const auto object = core::make_pattern(256 * 1024, 0xC0DE);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(12);
  recv_opts.control_port = port_base(13);
  recv_opts.core.ack_frequency = 16;
  recv_opts.endpoint.timeout_ms = 30'000;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;
  // 2% of data packets are corrupted after the checksum is computed.
  send_opts.endpoint.fault_plan = "seed=11;data.corrupt=0.02";

  const auto pair = run_pair(send_opts, recv_opts, object, sink);
  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  ASSERT_TRUE(pair.sender.completed()) << pair.sender.error;
  EXPECT_EQ(sink, object);
  EXPECT_GT(pair.receiver.corrupt_dropped, 0);
  EXPECT_GT(pair.sender.packets_sent, pair.sender.packets_needed);
}

// ---------------------------------------------------------------------------
// Control stream: only this flow's receiver can end a send
// ---------------------------------------------------------------------------

TEST(FaultPosixControl, ForeignCompletionDoesNotEndASend) {
  const auto object = core::make_pattern(256 * 1024, 0xF0E1);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::SenderOptions send_opts;
  send_opts.data_port = port_base(50);
  send_opts.control_port = port_base(51);
  send_opts.endpoint.timeout_ms = 30'000;
  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = send_opts.data_port;
  recv_opts.control_port = send_opts.control_port;
  recv_opts.endpoint.timeout_ms = 30'000;

  posix::TransferEngine engine({.workers = 2});
  auto tx = engine.submit_send(send_opts, object);
  ASSERT_FALSE(tx.done()) << tx.result().error;

  // A raw client claims completion of a transfer one packet longer, with
  // a good CRC, and hangs up.
  const core::TransferSpec spec{static_cast<std::int64_t>(object.size()),
                                send_opts.endpoint.packet_bytes};
  const std::int64_t foreign = spec.packet_count() + 1;
  const auto frame = posix::encode_state({0x5EED, foreign, foreign, {}});
  {
    const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
    const net::Fd client =
        net::connect_with_backoff("127.0.0.1", send_opts.control_port, deadline);
    ASSERT_TRUE(client.valid());
    ASSERT_TRUE(net::send_all(client.get(), frame.data(), frame.size(), deadline));
  }
  std::this_thread::sleep_for(std::chrono::milliseconds(200));
  EXPECT_FALSE(tx.done()) << "a foreign completion ended the send: "
                          << posix::to_string(tx.status());

  // The real receiver still gets the whole object.
  const auto rx = posix::receive_object(recv_opts, sink);
  ASSERT_TRUE(rx.completed()) << rx.error;
  EXPECT_EQ(tx.wait(), posix::TransferStatus::kCompleted) << tx.result().error;
  EXPECT_EQ(sink, object);
}

/// A TCP relay in front of a sender's control port that cuts one
/// connection, as a middlebox reset would. Every connection is relayed
/// both ways, the receiver's side frame by frame, until either end closes
/// or the cut closes both: kAfterFirstFrame right after forwarding the
/// first connection's first receiver-state frame, kFirstCompletion
/// instead of forwarding the first completion frame, which is lost.
class CuttingRelay {
 public:
  enum class Cut { kAfterFirstFrame, kFirstCompletion };

  CuttingRelay(std::uint16_t listen_port, std::uint16_t sender_port,
               std::int64_t packet_count, Cut cut)
      : listener_(net::listen_tcp(listen_port, 4)),
        packet_count_(packet_count),
        cut_(cut),
        thread_([this, sender_port] { run(sender_port); }) {}
  ~CuttingRelay() {
    stop_ = true;
    thread_.join();
  }

  [[nodiscard]] bool listening() const { return listener_.valid(); }
  /// True once the cut happened.
  [[nodiscard]] bool wait_cut(std::chrono::milliseconds timeout) const {
    const auto deadline = std::chrono::steady_clock::now() + timeout;
    while (!cut_done_ && std::chrono::steady_clock::now() < deadline) {
      std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    return cut_done_;
  }

 private:
  void run(std::uint16_t sender_port) {
    while (listener_.valid() && !stop_) {
      pollfd pfd{listener_.get(), POLLIN, 0};
      if (::poll(&pfd, 1, 20) <= 0) continue;
      const net::Fd down = net::accept_peer(listener_).fd;
      if (!down.valid()) continue;
      const auto deadline = std::chrono::steady_clock::now() + std::chrono::seconds(5);
      const net::Fd up = net::connect_with_backoff("127.0.0.1", sender_port, deadline);
      if (!up.valid()) return;
      relay(down, up);  // both ends close when it returns
    }
  }

  void relay(const net::Fd& down, const net::Fd& up) {
    std::vector<std::uint8_t> chunk;
    std::vector<std::uint8_t> frames;  // the receiver's bytes not yet forwarded
    const auto forward = [](const net::Fd& to, const std::uint8_t* data, std::size_t len) {
      net::send_all(to.get(), data, len, std::chrono::steady_clock::now() + std::chrono::seconds(1));
    };
    while (!stop_) {
      pollfd pfds[2] = {{down.get(), POLLIN, 0}, {up.get(), POLLIN, 0}};
      if (::poll(pfds, 2, 20) <= 0) continue;
      if (pfds[1].revents != 0) {
        if (net::read_closed(up.get(), chunk)) return;
        forward(down, chunk.data(), chunk.size());
      }
      if (pfds[0].revents == 0) continue;
      if (net::read_closed(down.get(), chunk)) return;
      frames.insert(frames.end(), chunk.begin(), chunk.end());
      while (true) {
        const auto frame = posix::next_control_frame(frames.data(), frames.size(), packet_count_);
        if (frame.kind != posix::ControlFrameKind::kState) break;
        const bool completion = frame.state && frame.state->received_count == packet_count_;
        if (!cut_done_ && cut_ == Cut::kFirstCompletion && completion) {
          cut_done_ = true;
          return;
        }
        forward(up, frames.data(), frame.consumed);
        frames.erase(frames.begin(), frames.begin() + static_cast<std::ptrdiff_t>(frame.consumed));
        if (!cut_done_ && cut_ == Cut::kAfterFirstFrame) {
          cut_done_ = true;
          return;
        }
      }
    }
  }

  net::Fd listener_;
  const std::int64_t packet_count_;
  const Cut cut_;
  std::atomic<bool> stop_{false};
  std::atomic<bool> cut_done_{false};
  std::thread thread_;
};

TEST(FaultPosixControl, ReceiverReconnectsWhenTheSenderDropsItsControlConnection) {
  const auto object = core::make_pattern(256 * 1024, 0xD20B);
  std::vector<std::uint8_t> sink(object.size(), 0);
  constexpr int kStallBudgetMs = 3'000;

  posix::SenderOptions send_opts;
  send_opts.data_port = port_base(52);
  send_opts.control_port = port_base(53);
  send_opts.endpoint.timeout_ms = kStallBudgetMs;
  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = send_opts.data_port;
  recv_opts.control_port = port_base(54);  // the relay
  recv_opts.endpoint.timeout_ms = kStallBudgetMs;

  // The sender's control port is bound before the send starts, so the
  // relay's connections wait in its backlog meanwhile.
  std::vector<net::Fd> listeners;
  listeners.push_back(net::listen_tcp(send_opts.control_port, 4));
  ASSERT_TRUE(listeners[0].valid());
  const core::TransferSpec spec{static_cast<std::int64_t>(object.size()),
                                send_opts.endpoint.packet_bytes};
  CuttingRelay relay(recv_opts.control_port, send_opts.control_port, spec.packet_count(),
                     CuttingRelay::Cut::kAfterFirstFrame);
  ASSERT_TRUE(relay.listening());

  posix::TransferEngine engine({.workers = 2});
  auto rx = engine.submit_receive(recv_opts, sink);
  // The first connection is gone before any data flows, so only a
  // receiver that watches its control connection can deliver completion.
  ASSERT_TRUE(relay.wait_cut(std::chrono::seconds(5)));
  posix::SessionParams params;
  params.control_listeners = std::move(listeners);
  auto tx = engine.submit_send(send_opts, object, std::move(params));

  EXPECT_EQ(tx.wait(), posix::TransferStatus::kCompleted) << tx.result().error;
  EXPECT_EQ(rx.wait(), posix::TransferStatus::kCompleted) << rx.result().error;
  EXPECT_EQ(sink, object);
  const auto& sender = tx.result().flows.at(0);
  const auto& receiver = rx.result().flows.at(0);
  EXPECT_LT(sender.elapsed_seconds, kStallBudgetMs / 1e3 / 2);
  EXPECT_GE(receiver.reconnects, 1);
  EXPECT_GE(sender.reconnects, 1);
}

TEST(FaultPosixControl, LostCompletionIsResentUntilTheSenderEchoesIt) {
  // The relay swallows the first completion frame and resets the
  // connection. A receiver that took a written frame for a delivered one
  // would leave the sender sending until its stall budget ran out; the
  // receiver instead waits for the sender's echo, reconnects and resends.
  const auto object = core::make_pattern(256 * 1024, 0xEC40);
  std::vector<std::uint8_t> sink(object.size(), 0);
  constexpr int kStallBudgetMs = 3'000;

  posix::SenderOptions send_opts;
  send_opts.data_port = port_base(56);
  send_opts.control_port = port_base(57);
  send_opts.endpoint.timeout_ms = kStallBudgetMs;
  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = send_opts.data_port;
  recv_opts.control_port = port_base(58);  // the relay
  recv_opts.endpoint.timeout_ms = kStallBudgetMs;

  const core::TransferSpec spec{static_cast<std::int64_t>(object.size()),
                                send_opts.endpoint.packet_bytes};
  CuttingRelay relay(recv_opts.control_port, send_opts.control_port, spec.packet_count(),
                     CuttingRelay::Cut::kFirstCompletion);
  ASSERT_TRUE(relay.listening());

  posix::TransferEngine engine({.workers = 2});
  auto tx = engine.submit_send(send_opts, object);
  ASSERT_FALSE(tx.done()) << tx.result().error;
  auto rx = engine.submit_receive(recv_opts, sink);

  EXPECT_EQ(tx.wait(), posix::TransferStatus::kCompleted) << tx.result().error;
  EXPECT_EQ(rx.wait(), posix::TransferStatus::kCompleted) << rx.result().error;
  EXPECT_TRUE(relay.wait_cut(std::chrono::milliseconds(0))) << "no completion was swallowed";
  EXPECT_EQ(sink, object);
  const auto& sender = tx.result().flows.at(0);
  const auto& receiver = rx.result().flows.at(0);
  EXPECT_LT(sender.elapsed_seconds, kStallBudgetMs / 1e3 / 2);
  EXPECT_GE(receiver.reconnects, 1);
  EXPECT_GE(sender.reconnects, 1);
}

// ---------------------------------------------------------------------------
// Crash + checkpoint + resume (the tentpole acceptance path)
// ---------------------------------------------------------------------------

/// One full crash-and-restart scenario: the receiver dies after 3500
/// data packets, then a second incarnation (same buffer) runs to
/// completion. Both variants checkpoint identically — the only
/// difference is whether the sidecar survives to the restart (`resume`)
/// or is wiped first (a true from-scratch restart), so the packet-count
/// comparison isolates exactly what the resume handshake saves.
TransferPair run_crash_restart(int port_offset, bool resume,
                               std::span<const std::uint8_t> object,
                               std::span<std::uint8_t> sink,
                               posix::FlowResult* first_incarnation = nullptr) {
  const std::string checkpoint_path =
      ::testing::TempDir() + "fobs_resume_" + std::to_string(port_offset) + ".ckpt";
  posix::remove_checkpoint(checkpoint_path);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(port_offset);
  recv_opts.control_port = port_base(port_offset + 1);
  recv_opts.core.ack_frequency = 16;
  recv_opts.endpoint.timeout_ms = 30'000;
  recv_opts.checkpoint_path = checkpoint_path;
  recv_opts.checkpoint_every_acks = 4;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;

  TransferPair out;
  std::thread receiver_thread([&] {
    // Incarnation 1: killed by the injected crash late in the transfer,
    // so the checkpointed bitmap is worth far more than the timing
    // noise of the restart window.
    auto crash_opts = recv_opts;
    crash_opts.endpoint.fault_plan = "crash=3500";
    const auto crashed = posix::receive_object(crash_opts, sink);
    if (first_incarnation != nullptr) *first_incarnation = crashed.flows.at(0);
    if (!resume) posix::remove_checkpoint(checkpoint_path);
    // Incarnation 2: restart into the same buffer.
    out.receiver = posix::receive_object(recv_opts, sink).flows.at(0);
  });
  out.sender = posix::send_object(send_opts, object).flows.at(0);
  receiver_thread.join();
  posix::remove_checkpoint(checkpoint_path);
  return out;
}

TEST(FaultPosixResume, RestartedReceiverResumesFromCheckpoint) {
  const auto object = core::make_pattern(4 * 1024 * 1024, 0xACE);
  std::vector<std::uint8_t> resumed_sink(object.size(), 0);
  std::vector<std::uint8_t> scratch_sink(object.size(), 0);

  posix::FlowResult crashed;
  auto& resumes = telemetry::MetricsRegistry::global().counter("fobs.fault.resumes");
  const auto resumes_before = resumes.value();
  const auto resumed =
      run_crash_restart(20, /*resume=*/true, object, resumed_sink, &crashed);
  const auto resumes_during = resumes.value() - resumes_before;
  EXPECT_EQ(crashed.status, posix::TransferStatus::kCrashed);
  EXPECT_EQ(crashed.error, "injected crash");
  ASSERT_TRUE(resumed.receiver.completed()) << resumed.receiver.error;
  ASSERT_TRUE(resumed.sender.completed()) << resumed.sender.error;
  EXPECT_EQ(resumed_sink, object);  // pre-crash bytes + resumed bytes agree
  // The second incarnation really started from the sidecar, and the
  // sender saw the restart as a control-channel reconnect.
  EXPECT_GT(resumed.receiver.packets_restored, 0);
  EXPECT_GE(resumed.sender.reconnects, 1);

  // Baseline: same crash, but the restart begins from scratch.
  const auto scratch = run_crash_restart(24, /*resume=*/false, object, scratch_sink);
  ASSERT_TRUE(scratch.receiver.completed()) << scratch.receiver.error;
  ASSERT_TRUE(scratch.sender.completed()) << scratch.sender.error;
  EXPECT_EQ(scratch.receiver.packets_restored, 0);

  // The resume handshake ran end to end: the second incarnation
  // restored its checkpoint and the sender applied the bitmap in its
  // state frame, each counted once. (Comparing packets_sent with the
  // scratch run instead depends on how many packets the sender pushes
  // while the receiver restarts, which is timing.)
  EXPECT_GE(resumes_during, 2);
}

TEST(FaultPosixResume, CheckpointIsRemovedAfterCompletion) {
  const std::string checkpoint_path = ::testing::TempDir() + "fobs_resume_cleanup.ckpt";
  posix::remove_checkpoint(checkpoint_path);
  const auto object = core::make_pattern(128 * 1024, 0xFACE);
  std::vector<std::uint8_t> sink(object.size(), 0);

  posix::ReceiverOptions recv_opts;
  recv_opts.data_port = port_base(28);
  recv_opts.control_port = port_base(29);
  recv_opts.core.ack_frequency = 16;
  recv_opts.endpoint.timeout_ms = 30'000;
  recv_opts.checkpoint_path = checkpoint_path;
  recv_opts.checkpoint_every_acks = 1;

  posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;
  send_opts.endpoint.timeout_ms = 30'000;

  const auto pair = run_pair(send_opts, recv_opts, object, sink);
  ASSERT_TRUE(pair.receiver.completed()) << pair.receiver.error;
  EXPECT_EQ(sink, object);
  // A completed transfer leaves no sidecar behind.
  EXPECT_FALSE(posix::load_checkpoint(checkpoint_path).has_value());
}

}  // namespace
}  // namespace fobs

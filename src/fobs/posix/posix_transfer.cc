#include "fobs/posix/posix_transfer.h"

#include <netinet/in.h>
#include <poll.h>
#include <unistd.h>

#include <chrono>
#include <vector>

#include "common/log.h"
#include "fobs/posix/session.h"
#include "net/datagram_channel.h"
#include "net/socket.h"

// The I/O pumps around the sans-io flow sessions (fobs/posix/session.h):
// this file owns the sockets, the syscalls, the waits and the clock
// reads, and asks the session about everything else.

namespace fobs::posix {

namespace {

using Clock = std::chrono::steady_clock;
using fobs::net::Fd;

bool cancel_requested(const std::atomic<bool>* cancel) {
  return cancel != nullptr && cancel->load(std::memory_order_relaxed);
}

}  // namespace

namespace detail {

FlowResult run_sender(const SenderOptions& options, const SendFlow& flow, Fd listener,
                      const std::atomic<bool>* cancel) {
  // Datagram channel for data out / ACKs in. Left unbound — the kernel
  // assigns the source port on first send and the receiver replies to
  // it. Receive slots are sized for the largest ACK datagram.
  std::string io_error;
  auto channel = fobs::net::DatagramChannel::open(
      {}, static_cast<std::size_t>(kMaxDatagramBytes), std::nullopt, &io_error);
  if (!channel.valid()) {
    return {.status = TransferStatus::kSocketError,
            .error = io_error,
            .packets_needed = flow.spec.packet_count()};
  }
  const sockaddr_in peer = fobs::net::make_addr(options.receiver_host, flow.data_port);
  std::vector<fobs::net::RecvView> ack_views(fobs::net::IoOptions::recv_batch);
  std::vector<std::uint8_t> control_bytes;
  Fd control;
  SenderSession session(options, flow, Clock::now());

  while (!session.done()) {
    if (session.tick(Clock::now(), cancel_requested(cancel))) break;

    // Accept or read the control channel. A restarted receiver shows up
    // as EOF on the old connection followed by a fresh accept.
    if (!control.valid()) {
      control = fobs::net::accept_peer(listener).fd;
      if (control.valid() && session.on_control_connected()) {
        while (channel.recv_batch(ack_views, nullptr) > 0) {
        }
      }
    } else {
      if (fobs::net::read_closed(control.get(), control_bytes) ||
          session.on_control_bytes(control_bytes)) {
        control.reset();
      }
      if (session.done()) break;
    }

    // One non-blocking batched drain of the ACK socket.
    const int n_acks = channel.recv_batch(ack_views, nullptr);
    for (int i = 0; i < n_acks; ++i) {
      session.on_ack_datagram(ack_views[static_cast<std::size_t>(i)].data);
    }

    if (session.idle()) {
      // Nothing useful to send: sleep on the actual fds (fresher ACKs on
      // the data socket, the completion on the control side) rather than
      // a fixed nap, bounded at 10 ms so the cancel/stall checks run.
      pollfd pfds[2] = {{channel.fd(), POLLIN, 0},
                        {control.valid() ? control.get() : listener.get(), POLLIN, 0}};
      ::poll(pfds, 2, 10);
      continue;
    }

    const auto batch = session.next_batch();
    if (!batch.empty() && !channel.send_batch(batch, peer, &io_error)) {
      session.on_socket_error(io_error);
      break;
    }
    session.on_batch_sent();
  }

  if (session.completed()) {
    // Echo the completion: the receiver holds its flow open until it
    // reads the echo, and resends a completion that got lost.
    if (control.valid()) {
      const auto echo = session.completion_echo();
      fobs::net::send_all(control.get(), echo.data(), echo.size(),
                          Clock::now() + kCompletionEchoWait);
    }
    // Count ACK datagrams still queued at exit, so the corrupt/stale drop
    // counters do not depend on how many a fast completion left unread.
    for (int n = 0; (n = channel.recv_batch(ack_views, nullptr)) > 0;) {
      for (int i = 0; i < n; ++i) {
        session.on_ack_datagram(ack_views[static_cast<std::size_t>(i)].data);
      }
    }
  }
  auto result = session.finish(Clock::now());
  result.io = channel.stats();
  return result;
}

FlowResult run_receiver(const ReceiverOptions& options, const ReceiveFlow& flow,
                        TransferCheckpoint* checkpoint,
                        fobs::core::WriteBehindSink* write_behind,
                        const std::atomic<bool>* cancel) {
  // Datagram channel bound at the data port. Receive slots are sized
  // for exactly one full data packet; anything larger is truncated by
  // the kernel and rejected as garbage by the session.
  std::string io_error;
  auto channel = fobs::net::DatagramChannel::open(
      {}, kDataHeaderSize + static_cast<std::size_t>(flow.spec.packet_bytes), flow.data_port,
      &io_error);
  if (!channel.valid()) return {.status = TransferStatus::kSocketError, .error = io_error};
  // This incarnation's epoch: monotonic time xor'd with the pid makes a
  // collision across incarnations vanishingly unlikely; 0 means "none".
  const auto start = Clock::now();
  const auto epoch = static_cast<std::uint32_t>(start.time_since_epoch().count() ^
                                                (static_cast<std::uint64_t>(::getpid()) << 16));
  ReceiverSession session(options, flow, checkpoint, write_behind, epoch == 0 ? 1 : epoch,
                          start);

  Fd control;
  std::vector<std::uint8_t> control_bytes;
  // Writes the state frame, first connecting when the control connection
  // is down; false when the connect or the write fails by `deadline`.
  const auto send_state = [&](Clock::time_point deadline) {
    if (!control.valid()) {
      control = fobs::net::connect_with_backoff(options.sender_host, flow.control_port, deadline,
                                                cancel);
      if (!control.valid()) return false;
      session.on_control_connected(Clock::now());
    }
    const auto frame = session.state_frame();
    return fobs::net::send_all(control.get(), frame.data(), frame.size(), deadline);
  };

  // Connect with capped exponential backoff: the sender may not be up
  // yet, or this is a restarted incarnation.
  if (!send_state(start + std::chrono::milliseconds(options.endpoint.timeout_ms))) {
    if (!control.valid()) {
      session.on_connect_failed(cancel_requested(cancel));
    } else {
      FOBS_WARN("fobs.receiver", "state frame send failed; sender keeps its previous epoch "
                                 "and re-sends everything");
    }
  }

  std::vector<fobs::net::RecvView> rx_views(fobs::net::IoOptions::recv_batch);
  while (!session.done()) {
    if (session.tick(Clock::now(), cancel_requested(cancel))) break;
    const int n_rx = channel.recv_batch(rx_views, &io_error);
    if (n_rx < 0) {
      session.on_socket_error(io_error);
      break;
    }
    if (n_rx == 0) {
      // Idle: wait for data, and notice the sender dropping the control
      // connection (poll skips the entry while it is closed).
      pollfd pfds[2] = {{channel.fd(), POLLIN, 0}, {control.get(), POLLIN, 0}};
      ::poll(pfds, 2, 10);
      if (pfds[1].revents != 0 && fobs::net::read_closed(control.get(), control_bytes)) {
        control.reset();
        send_state(Clock::now() + std::chrono::seconds(1));
      }
      continue;
    }
    for (int i = 0; i < n_rx && !session.done(); ++i) {
      const auto& view = rx_views[static_cast<std::size_t>(i)];
      const auto acks = session.on_datagram(view.data);
      if (!acks.empty()) channel.send_batch(acks, view.from, nullptr);
    }
  }

  // The completion handshake: write the completion frame and wait for
  // the sender's echo. EOF, an error or silence until the deadline drops
  // the connection, and the next attempt reconnects and writes it again.
  while (session.awaiting_echo()) {
    const auto deadline = session.begin_completion_attempt(Clock::now());
    bool open = send_state(deadline);
    while (open && !session.echoed() && Clock::now() < deadline) {
      pollfd pfd{control.get(), POLLIN, 0};
      ::poll(&pfd, 1, 10);
      open = !fobs::net::read_closed(control.get(), control_bytes);
      session.on_control_bytes(control_bytes);
    }
    if (!session.echoed()) control.reset();
  }
  auto result = session.finish(Clock::now());
  result.io = channel.stats();
  return result;
}

}  // namespace detail

}  // namespace fobs::posix

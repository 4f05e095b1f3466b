#include "net/datagram_channel.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "telemetry/metrics.h"

namespace fobs::net {

namespace {

bool retryable_errno(int err) {
  return err == EWOULDBLOCK || err == EAGAIN || err == ENOBUFS || err == EINTR;
}

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

IoStats& IoStats::operator+=(const IoStats& other) {
  send_syscalls += other.send_syscalls;
  recv_syscalls += other.recv_syscalls;
  datagrams_sent += other.datagrams_sent;
  datagrams_received += other.datagrams_received;
  send_would_block += other.send_would_block;
  bytes_sent += other.bytes_sent;
  bytes_received += other.bytes_received;
  return *this;
}

DatagramChannel DatagramChannel::open(const IoOptions&, std::size_t max_datagram_bytes,
                                      std::optional<std::uint16_t> bind_port,
                                      std::string* error) {
  DatagramChannel channel;
  if (max_datagram_bytes == 0) {
    if (error != nullptr) *error = "max_datagram_bytes must be positive";
    return channel;
  }
  Fd fd(::socket(AF_INET, SOCK_DGRAM, 0));
  if (!fd.valid() || !set_nonblocking(fd.get())) {
    set_error(error, "udp socket setup failed");
    return channel;
  }
  ::setsockopt(fd.get(), SOL_SOCKET, SO_SNDBUF, &IoOptions::send_buffer_bytes,
               sizeof IoOptions::send_buffer_bytes);
  ::setsockopt(fd.get(), SOL_SOCKET, SO_RCVBUF, &IoOptions::recv_buffer_bytes,
               sizeof IoOptions::recv_buffer_bytes);
  if (bind_port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(*bind_port);
    addr.sin_addr.s_addr = INADDR_ANY;
    if (::bind(fd.get(), reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      set_error(error, "udp bind failed");
      return channel;
    }
  }

  channel.fd_ = std::move(fd);
  channel.slot_bytes_ = max_datagram_bytes;
  channel.rx_pool_.resize(static_cast<std::size_t>(IoOptions::recv_batch) * max_datagram_bytes);
  auto& metrics = fobs::telemetry::MetricsRegistry::global();
  channel.syscalls_metric_ = &metrics.counter("fobs.io.syscalls");
  channel.per_syscall_metric_ =
      &metrics.histogram("fobs.io.datagrams_per_syscall", {1, 2, 4, 8, 16, 32, 64});
  return channel;
}

std::uint16_t DatagramChannel::local_port() const {
  if (!fd_.valid()) return 0;
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

void DatagramChannel::note_syscall(bool send, int datagrams) {
  if (send) {
    ++stats_.send_syscalls;
    stats_.datagrams_sent += static_cast<std::uint64_t>(datagrams);
  } else {
    ++stats_.recv_syscalls;
    stats_.datagrams_received += static_cast<std::uint64_t>(datagrams);
  }
  syscalls_metric_->inc();
  per_syscall_metric_->observe(datagrams);
}

bool DatagramChannel::wait_writable() {
  ++stats_.send_would_block;
  pollfd pfd{fd_.get(), POLLOUT, 0};
  return ::poll(&pfd, 1, 10) >= 0 || errno == EINTR;
}

bool DatagramChannel::send_batch(std::span<const DatagramView> batch, const sockaddr_in& dest,
                                 std::string* error) {
  if (!fd_.valid()) {
    if (error != nullptr) *error = "channel not open";
    return false;
  }
  std::size_t off = 0;
  while (off < batch.size()) {
    const int want = static_cast<int>(std::min<std::size_t>(
        batch.size() - off, static_cast<std::size_t>(IoOptions::send_batch)));
    mmsghdr msgs[IoOptions::send_batch];
    iovec iovs[IoOptions::send_batch][2];
    std::memset(msgs, 0, static_cast<std::size_t>(want) * sizeof(mmsghdr));
    for (int i = 0; i < want; ++i) {
      const DatagramView& d = batch[off + static_cast<std::size_t>(i)];
      iovs[i][0] = {const_cast<std::uint8_t*>(d.header.data()), d.header.size()};
      int iov_count = 1;
      if (!d.payload.empty()) {
        iovs[i][1] = {const_cast<std::uint8_t*>(d.payload.data()), d.payload.size()};
        iov_count = 2;
      }
      msgs[i].msg_hdr.msg_name = const_cast<sockaddr_in*>(&dest);
      msgs[i].msg_hdr.msg_namelen = sizeof dest;
      msgs[i].msg_hdr.msg_iov = iovs[i];
      msgs[i].msg_hdr.msg_iovlen = static_cast<std::size_t>(iov_count);
    }
    const int sent = ::sendmmsg(fd_.get(), msgs, static_cast<unsigned>(want), 0);
    if (sent > 0) {
      std::int64_t bytes = 0;
      for (int i = 0; i < sent; ++i) {
        bytes += static_cast<std::int64_t>(batch[off + static_cast<std::size_t>(i)].size());
      }
      note_syscall(/*send=*/true, sent);
      stats_.bytes_sent += bytes;
      off += static_cast<std::size_t>(sent);
      continue;
    }
    if (retryable_errno(errno)) {
      if (!wait_writable()) {
        set_error(error, "poll failed");
        return false;
      }
      continue;
    }
    set_error(error, "sendmmsg failed");
    return false;
  }
  return true;
}

int DatagramChannel::recv_batch(std::span<RecvView> out, std::string* error) {
  if (!fd_.valid()) {
    if (error != nullptr) *error = "channel not open";
    return -1;
  }
  if (out.empty()) return 0;
  const int want = static_cast<int>(
      std::min<std::size_t>(out.size(), static_cast<std::size_t>(IoOptions::recv_batch)));
  mmsghdr msgs[IoOptions::recv_batch];
  iovec iovs[IoOptions::recv_batch];
  sockaddr_in froms[IoOptions::recv_batch];
  std::memset(msgs, 0, static_cast<std::size_t>(want) * sizeof(mmsghdr));
  for (int i = 0; i < want; ++i) {
    iovs[i] = {rx_pool_.data() + static_cast<std::size_t>(i) * slot_bytes_, slot_bytes_};
    msgs[i].msg_hdr.msg_iov = &iovs[i];
    msgs[i].msg_hdr.msg_iovlen = 1;
    msgs[i].msg_hdr.msg_name = &froms[i];
    msgs[i].msg_hdr.msg_namelen = sizeof froms[i];
  }
  const int got =
      ::recvmmsg(fd_.get(), msgs, static_cast<unsigned>(want), MSG_DONTWAIT, nullptr);
  if (got > 0) {
    std::int64_t bytes = 0;
    for (int i = 0; i < got; ++i) {
      out[static_cast<std::size_t>(i)] = RecvView{
          std::span<std::uint8_t>(rx_pool_.data() + static_cast<std::size_t>(i) * slot_bytes_,
                                  msgs[i].msg_len),
          froms[i]};
      bytes += msgs[i].msg_len;
    }
    note_syscall(/*send=*/false, got);
    stats_.bytes_received += bytes;
    return got;
  }
  if (got == 0 || errno == EWOULDBLOCK || errno == EAGAIN || errno == EINTR) return 0;
  set_error(error, "recvmmsg failed");
  return -1;
}

}  // namespace fobs::net

#include "net/datagram_channel.h"

#include <arpa/inet.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "common/log.h"
#include "net/socket.h"
#include "telemetry/metrics.h"

namespace fobs::net {

namespace {

bool retryable_errno(int err) {
  return err == EWOULDBLOCK || err == EAGAIN || err == ENOBUFS || err == EINTR;
}

/// Errors that mean "this kernel does not do batched datagram I/O" —
/// the channel degrades to the fallback path instead of failing.
bool unsupported_errno(int err) { return err == ENOSYS || err == EOPNOTSUPP; }

void set_error(std::string* error, const char* what) {
  if (error != nullptr) *error = std::string(what) + ": " + std::strerror(errno);
}

}  // namespace

const char* to_string(IoMode mode) {
  switch (mode) {
    case IoMode::kAuto: return "auto";
    case IoMode::kBatched: return "batched";
    case IoMode::kFallback: return "fallback";
  }
  return "unknown";
}

std::string IoOptions::validate() const {
  if (send_batch < 1 || send_batch > kMaxBatchDatagrams) {
    return "io.send_batch must be in [1, " + std::to_string(kMaxBatchDatagrams) + "]";
  }
  if (recv_batch < 1 || recv_batch > kMaxBatchDatagrams) {
    return "io.recv_batch must be in [1, " + std::to_string(kMaxBatchDatagrams) + "]";
  }
  if (send_buffer_bytes < 0) return "io.send_buffer_bytes must be non-negative";
  if (recv_buffer_bytes < 0) return "io.recv_buffer_bytes must be non-negative";
  return {};
}

DatagramChannel::~DatagramChannel() {
  if (fd_ >= 0) ::close(fd_);
}

DatagramChannel::DatagramChannel(DatagramChannel&& other) noexcept { *this = std::move(other); }

DatagramChannel& DatagramChannel::operator=(DatagramChannel&& other) noexcept {
  if (this != &other) {
    if (fd_ >= 0) ::close(fd_);
    fd_ = other.fd_;
    other.fd_ = -1;
    batched_ = other.batched_;
    send_batch_limit_ = other.send_batch_limit_;
    recv_batch_limit_ = other.recv_batch_limit_;
    slot_bytes_ = other.slot_bytes_;
    rx_pool_ = std::move(other.rx_pool_);
    tx_scratch_ = std::move(other.tx_scratch_);
    stats_ = other.stats_;
    syscalls_metric_ = other.syscalls_metric_;
    copy_avoided_metric_ = other.copy_avoided_metric_;
    per_syscall_metric_ = other.per_syscall_metric_;
  }
  return *this;
}

DatagramChannel DatagramChannel::open(const IoOptions& io, std::size_t max_datagram_bytes,
                                      std::optional<std::uint16_t> bind_port,
                                      std::string* error) {
  DatagramChannel channel;
  const std::string invalid = io.validate();
  if (!invalid.empty()) {
    if (error != nullptr) *error = invalid;
    return channel;
  }
  if (max_datagram_bytes == 0) {
    if (error != nullptr) *error = "max_datagram_bytes must be positive";
    return channel;
  }
#if defined(__linux__)
  const bool batched = io.mode != IoMode::kFallback;
#else
  if (io.mode == IoMode::kBatched) {
    if (error != nullptr) *error = "batched datagram I/O is not available on this platform";
    return channel;
  }
  const bool batched = false;
#endif

  const int fd = ::socket(AF_INET, SOCK_DGRAM, 0);
  if (fd < 0 || !set_nonblocking(fd)) {
    set_error(error, "udp socket setup failed");
    if (fd >= 0) ::close(fd);
    return channel;
  }
  if (io.send_buffer_bytes > 0) {
    const int buf = io.send_buffer_bytes;
    ::setsockopt(fd, SOL_SOCKET, SO_SNDBUF, &buf, sizeof buf);
  }
  if (io.recv_buffer_bytes > 0) {
    const int buf = io.recv_buffer_bytes;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &buf, sizeof buf);
  }
  if (bind_port) {
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(*bind_port);
    addr.sin_addr.s_addr = INADDR_ANY;
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
      set_error(error, "udp bind failed");
      ::close(fd);
      return channel;
    }
  }

  channel.fd_ = fd;
  channel.batched_ = batched;
  channel.send_batch_limit_ = batched ? io.send_batch : 1;
  channel.recv_batch_limit_ = batched ? io.recv_batch : 1;
  channel.slot_bytes_ = max_datagram_bytes;
  channel.rx_pool_.resize(static_cast<std::size_t>(channel.recv_batch_limit_) *
                          channel.slot_bytes_);
  channel.tx_scratch_.resize(channel.slot_bytes_);
  auto& metrics = fobs::telemetry::MetricsRegistry::global();
  channel.syscalls_metric_ = &metrics.counter("fobs.io.syscalls");
  channel.copy_avoided_metric_ = &metrics.counter("fobs.io.copy_bytes_avoided");
  channel.per_syscall_metric_ =
      &metrics.histogram("fobs.io.datagrams_per_syscall", {1, 2, 4, 8, 16, 32, 64});
  metrics.counter(batched ? "fobs.io.batched_channels" : "fobs.io.fallback_channels").inc();
  return channel;
}

std::uint16_t DatagramChannel::local_port() const {
  if (fd_ < 0) return 0;
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd_, reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
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
  pollfd pfd{fd_, POLLOUT, 0};
  return ::poll(&pfd, 1, 10) >= 0 || errno == EINTR;
}

bool DatagramChannel::send_fallback(const DatagramView& datagram, const sockaddr_in& dest,
                                    std::string* error) {
  // The classic path: assemble header + payload into one buffer (the
  // per-packet copy the gather path avoids), then one sendto per
  // datagram.
  const std::size_t total = datagram.size();
  const std::uint8_t* data = datagram.header.data();
  if (!datagram.payload.empty()) {
    if (total > tx_scratch_.size()) tx_scratch_.resize(total);
    std::memcpy(tx_scratch_.data(), datagram.header.data(), datagram.header.size());
    std::memcpy(tx_scratch_.data() + datagram.header.size(), datagram.payload.data(),
                datagram.payload.size());
    data = tx_scratch_.data();
  }
  while (true) {
    const ssize_t sent = ::sendto(fd_, data, total, 0,
                                  reinterpret_cast<const sockaddr*>(&dest), sizeof dest);
    if (sent >= 0) {
      note_syscall(/*send=*/true, 1);
      stats_.bytes_sent += static_cast<std::int64_t>(total);
      return true;
    }
    if (retryable_errno(errno)) {
      if (!wait_writable()) {
        set_error(error, "poll failed");
        return false;
      }
      continue;
    }
    set_error(error, "sendto failed");
    return false;
  }
}

bool DatagramChannel::send_batch(std::span<const DatagramView> batch, const sockaddr_in& dest,
                                 std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "channel not open";
    return false;
  }
  std::size_t off = 0;
#if defined(__linux__)
  while (batched_ && off < batch.size()) {
    const int want = static_cast<int>(std::min<std::size_t>(batch.size() - off,
                                                            static_cast<std::size_t>(
                                                                send_batch_limit_)));
    mmsghdr msgs[kMaxBatchDatagrams];
    iovec iovs[kMaxBatchDatagrams][2];
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
    const int sent = ::sendmmsg(fd_, msgs, static_cast<unsigned>(want), 0);
    if (sent > 0) {
      std::int64_t avoided = 0;
      std::int64_t bytes = 0;
      for (int i = 0; i < sent; ++i) {
        const DatagramView& d = batch[off + static_cast<std::size_t>(i)];
        avoided += static_cast<std::int64_t>(d.payload.size());
        bytes += static_cast<std::int64_t>(d.size());
      }
      note_syscall(/*send=*/true, sent);
      stats_.bytes_sent += bytes;
      stats_.copy_bytes_avoided += avoided;
      copy_avoided_metric_->inc(avoided);
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
    if (unsupported_errno(errno)) {
      FOBS_WARN("fobs.net.io", "sendmmsg unsupported at runtime; degrading to sendto");
      batched_ = false;
      break;  // remaining datagrams go out the fallback path below
    }
    set_error(error, "sendmmsg failed");
    return false;
  }
#endif
  for (; off < batch.size(); ++off) {
    if (!send_fallback(batch[off], dest, error)) return false;
  }
  return true;
}

int DatagramChannel::recv_batch(std::span<RecvView> out, std::string* error) {
  if (fd_ < 0) {
    if (error != nullptr) *error = "channel not open";
    return -1;
  }
  if (out.empty()) return 0;
  const int want = static_cast<int>(std::min<std::size_t>(
      out.size(), static_cast<std::size_t>(recv_batch_limit_)));
#if defined(__linux__)
  if (batched_) {
    mmsghdr msgs[kMaxBatchDatagrams];
    iovec iovs[kMaxBatchDatagrams];
    sockaddr_in froms[kMaxBatchDatagrams];
    std::memset(msgs, 0, static_cast<std::size_t>(want) * sizeof(mmsghdr));
    for (int i = 0; i < want; ++i) {
      iovs[i] = {rx_pool_.data() + static_cast<std::size_t>(i) * slot_bytes_, slot_bytes_};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &froms[i];
      msgs[i].msg_hdr.msg_namelen = sizeof froms[i];
    }
    const int got = ::recvmmsg(fd_, msgs, static_cast<unsigned>(want), MSG_DONTWAIT, nullptr);
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
    if (errno == EWOULDBLOCK || errno == EAGAIN || errno == EINTR) return 0;
    if (unsupported_errno(errno)) {
      FOBS_WARN("fobs.net.io", "recvmmsg unsupported at runtime; degrading to recvfrom");
      batched_ = false;
    } else {
      set_error(error, "recvmmsg failed");
      return -1;
    }
  }
#endif
  sockaddr_in from{};
  socklen_t from_len = sizeof from;
  const ssize_t n = ::recvfrom(fd_, rx_pool_.data(), slot_bytes_, MSG_DONTWAIT,
                               reinterpret_cast<sockaddr*>(&from), &from_len);
  if (n >= 0) {
    out[0] = RecvView{std::span<std::uint8_t>(rx_pool_.data(), static_cast<std::size_t>(n)),
                      from};
    note_syscall(/*send=*/false, 1);
    stats_.bytes_received += n;
    return 1;
  }
  if (errno == EWOULDBLOCK || errno == EAGAIN || errno == EINTR) return 0;
  set_error(error, "recvfrom failed");
  return -1;
}

}  // namespace fobs::net

#include "net/datagram_channel.h"

#include <arpa/inet.h>
#include <linux/sock_diag.h>
#include <netinet/udp.h>
#include <poll.h>
#include <sys/socket.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <utility>

#include "common/log.h"
#include "telemetry/metrics.h"

#ifndef UDP_SEGMENT
#define UDP_SEGMENT 103
#endif
#ifndef UDP_GRO
#define UDP_GRO 104
#endif
#ifndef SO_MEMINFO
#define SO_MEMINFO 55
#endif

namespace fobs::net {

namespace {

// Room for a received datagram's control message: the UDP_GRO segment
// size (an int).
constexpr std::size_t kCmsgBytes = CMSG_SPACE(sizeof(int));

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
  if (max_datagram_bytes == 0 || max_datagram_bytes > IoOptions::recv_slot_bytes) {
    if (error != nullptr) {
      *error = "max_datagram_bytes must be in [1, " + std::to_string(IoOptions::recv_slot_bytes) +
               "]";
    }
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
  // Coalesced trains arrive whole (split in recv_batch).
  const int on = 1;
  ::setsockopt(fd.get(), SOL_UDP, UDP_GRO, &on, sizeof on);
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
  channel.rx_pool_.resize(static_cast<std::size_t>(IoOptions::recv_slots) *
                         IoOptions::recv_slot_bytes);
  channel.pending_.reserve(static_cast<std::size_t>(IoOptions::recv_slots) *
                           static_cast<std::size_t>(IoOptions::send_batch));
  auto& metrics = fobs::telemetry::MetricsRegistry::global();
  channel.syscalls_metric_ = &metrics.counter("fobs.io.syscalls");
  channel.per_syscall_metric_ = &metrics.histogram("fobs.io.datagrams_per_syscall",
                                                   {1, 2, 4, 8, 16, 32, 64, 128, 512});
  return channel;
}

std::uint16_t DatagramChannel::local_port() const {
  if (!fd_.valid()) return 0;
  sockaddr_in addr{};
  socklen_t len = sizeof addr;
  if (::getsockname(fd_.get(), reinterpret_cast<sockaddr*>(&addr), &len) != 0) return 0;
  return ntohs(addr.sin_port);
}

std::uint32_t DatagramChannel::queue_drops() const {
  std::uint32_t meminfo[SK_MEMINFO_VARS] = {};
  socklen_t len = sizeof meminfo;
  if (!fd_.valid() || ::getsockopt(fd_.get(), SOL_SOCKET, SO_MEMINFO, meminfo, &len) != 0 ||
      len <= SK_MEMINFO_DROPS * sizeof(std::uint32_t)) {
    return 0;
  }
  return meminfo[SK_MEMINFO_DROPS];
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

int DatagramChannel::send_train(std::span<const DatagramView> run, const sockaddr_in& dest) {
  iovec iovs[2 * IoOptions::send_batch];
  std::size_t iov_count = 0;
  std::int64_t bytes = 0;
  for (const DatagramView& d : run) {
    iovs[iov_count++] = {const_cast<std::uint8_t*>(d.header.data()), d.header.size()};
    if (!d.payload.empty()) {
      iovs[iov_count++] = {const_cast<std::uint8_t*>(d.payload.data()), d.payload.size()};
    }
    bytes += static_cast<std::int64_t>(d.size());
  }
  msghdr msg{};
  msg.msg_name = const_cast<sockaddr_in*>(&dest);
  msg.msg_namelen = sizeof dest;
  msg.msg_iov = iovs;
  msg.msg_iovlen = iov_count;
  alignas(cmsghdr) char control[CMSG_SPACE(sizeof(std::uint16_t))] = {};
  if (run.size() > 1) {
    // The kernel cuts the train into datagrams of the first one's size.
    msg.msg_control = control;
    msg.msg_controllen = sizeof control;
    cmsghdr* cmsg = CMSG_FIRSTHDR(&msg);
    cmsg->cmsg_level = SOL_UDP;
    cmsg->cmsg_type = UDP_SEGMENT;
    cmsg->cmsg_len = CMSG_LEN(sizeof(std::uint16_t));
    const auto segment = static_cast<std::uint16_t>(run[0].size());
    std::memcpy(CMSG_DATA(cmsg), &segment, sizeof segment);
  }
  if (::sendmsg(fd_.get(), &msg, 0) < 0) return errno;
  note_syscall(/*send=*/true, static_cast<int>(run.size()));
  stats_.bytes_sent += bytes;
  return 0;
}

bool DatagramChannel::send_batch(std::span<const DatagramView> batch, const sockaddr_in& dest,
                                 std::string* error) {
  if (!fd_.valid()) {
    if (error != nullptr) *error = "channel not open";
    return false;
  }
  std::size_t off = 0;
  while (off < batch.size()) {
    // The run: datagrams of the first one's size, then at most one
    // shorter one, within the segment and byte limits (an empty
    // datagram is a run of its own).
    const std::size_t segment = batch[off].size();
    std::size_t count = 1;
    std::size_t bytes = segment;
    while (segment > 0 && off + count < batch.size() &&
           count < static_cast<std::size_t>(max_segments_) &&
           batch[off + count - 1].size() == segment &&
           batch[off + count].size() <= segment &&
           bytes + batch[off + count].size() <= IoOptions::max_train_bytes) {
      bytes += batch[off + count].size();
      ++count;
    }
    const int err = send_train(batch.subspan(off, count), dest);
    if (err == 0) {
      off += count;
      continue;
    }
    errno = err;
    if (retryable_errno(err)) {
      if (!wait_writable()) {
        set_error(error, "poll failed");
        return false;
      }
      continue;
    }
    if (count > 1 && (err == EIO || err == EINVAL)) {
      max_segments_ = 1;
      FOBS_WARN("fobs.io", "segmented send refused (" << std::strerror(err)
                                                      << "); sending one datagram per call");
      continue;
    }
    set_error(error, "sendmsg failed");
    return false;
  }
  return true;
}

int DatagramChannel::recv_batch(std::span<RecvView> out, std::string* error) {
  if (!fd_.valid()) {
    if (error != nullptr) *error = "channel not open";
    return -1;
  }
  const std::size_t limit =
      std::min(out.size(), static_cast<std::size_t>(IoOptions::recv_batch));
  if (limit == 0) return 0;
  if (pending_at_ == pending_.size()) {
    mmsghdr msgs[IoOptions::recv_slots];
    iovec iovs[IoOptions::recv_slots];
    sockaddr_in froms[IoOptions::recv_slots];
    alignas(cmsghdr) char controls[IoOptions::recv_slots][kCmsgBytes];
    std::memset(msgs, 0, sizeof msgs);
    for (int i = 0; i < IoOptions::recv_slots; ++i) {
      iovs[i] = {rx_pool_.data() + static_cast<std::size_t>(i) * IoOptions::recv_slot_bytes,
                 IoOptions::recv_slot_bytes};
      msgs[i].msg_hdr.msg_iov = &iovs[i];
      msgs[i].msg_hdr.msg_iovlen = 1;
      msgs[i].msg_hdr.msg_name = &froms[i];
      msgs[i].msg_hdr.msg_namelen = sizeof froms[i];
      msgs[i].msg_hdr.msg_control = controls[i];
      msgs[i].msg_hdr.msg_controllen = kCmsgBytes;
    }
    const int got =
        ::recvmmsg(fd_.get(), msgs, IoOptions::recv_slots, MSG_DONTWAIT, nullptr);
    if (got <= 0) {
      if (got == 0 || errno == EWOULDBLOCK || errno == EAGAIN || errno == EINTR) return 0;
      set_error(error, "recvmmsg failed");
      return -1;
    }
    pending_.clear();
    pending_at_ = 0;
    std::int64_t bytes = 0;
    for (int i = 0; i < got; ++i) {
      // A coalesced train names its segment size; a lone datagram is
      // one segment of its own length.
      const std::size_t len = msgs[i].msg_len;
      std::size_t segment = len;
      for (cmsghdr* cmsg = CMSG_FIRSTHDR(&msgs[i].msg_hdr); cmsg != nullptr;
           cmsg = CMSG_NXTHDR(&msgs[i].msg_hdr, cmsg)) {
        if (cmsg->cmsg_level == SOL_UDP && cmsg->cmsg_type == UDP_GRO) {
          int size = 0;
          std::memcpy(&size, CMSG_DATA(cmsg), sizeof size);
          if (size > 0) segment = static_cast<std::size_t>(size);
        }
      }
      std::uint8_t* slot = static_cast<std::uint8_t*>(iovs[i].iov_base);
      std::size_t at = 0;
      do {
        const std::size_t size = std::min(segment, len - at);
        pending_.push_back({std::span<std::uint8_t>(slot + at, size), froms[i]});
        at += size;
      } while (at < len);
      bytes += static_cast<std::int64_t>(len);
    }
    note_syscall(/*send=*/false, static_cast<int>(pending_.size()));
    stats_.bytes_received += bytes;
  }
  const std::size_t n = std::min(limit, pending_.size() - pending_at_);
  std::copy_n(pending_.begin() + static_cast<std::ptrdiff_t>(pending_at_), n, out.begin());
  pending_at_ += n;
  return static_cast<int>(n);
}

}  // namespace fobs::net

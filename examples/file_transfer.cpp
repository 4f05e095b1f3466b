// Real-socket FOBS file transfer.
//
// Three modes:
//   file_transfer demo                          — in-process loopback demo
//   file_transfer recv <port> <bytes> <out>     — receive a file
//   file_transfer send <host> <port> <file>     — send a file
//
// send/recv pair up across machines (or terminals): start the receiver
// first; the sender listens for the completion signal on <port>+1, the
// data flows over UDP port <port>.
//
// The demo runs both endpoints as sessions of one TransferEngine —
// no hand-rolled threads — and reports outcomes via TransferStatus.
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "fobs/object.h"
#include "fobs/posix/engine.h"

namespace {

bool write_file(const std::string& path, const std::vector<std::uint8_t>& data) {
  std::ofstream out(path, std::ios::binary);
  out.write(reinterpret_cast<const char*>(data.data()),
            static_cast<std::streamsize>(data.size()));
  return out.good();
}

int run_demo() {
  std::printf("FOBS loopback demo: sending 16 MiB through real UDP sockets...\n");
  const auto object = fobs::core::make_pattern(16 * 1024 * 1024, 0xD3405EED);
  std::vector<std::uint8_t> sink(object.size(), 0);

  fobs::posix::ReceiverOptions recv_opts;
  recv_opts.data_port = 38000;
  recv_opts.control_port = 38001;
  fobs::posix::SenderOptions send_opts;
  send_opts.data_port = recv_opts.data_port;
  send_opts.control_port = recv_opts.control_port;

  // Both endpoints run as sessions of one engine; wait() replaces the
  // manual thread-join choreography.
  fobs::posix::TransferEngine engine({.workers = 2});
  auto rx = engine.submit_receive(recv_opts, std::span<std::uint8_t>(sink));
  auto tx = engine.submit_send(send_opts, std::span<const std::uint8_t>(object));
  rx.wait();
  tx.wait();
  const auto& send_result = tx.result();
  const auto& recv_result = rx.result();

  if (!send_result.completed() || !recv_result.completed()) {
    std::printf("FAILED: sender %s (%s), receiver %s (%s)\n",
                to_string(send_result.status), send_result.error.c_str(),
                to_string(recv_result.status), recv_result.error.c_str());
    return 1;
  }
  const bool ok = sink == object;
  const auto& flow = send_result.flows[0];
  std::printf("  goodput %.0f Mb/s, %lld packets sent for %lld needed (waste %.2f%%)\n",
              send_result.goodput_mbps, static_cast<long long>(flow.packets_sent),
              static_cast<long long>(flow.packets_needed), 100.0 * flow.waste);
  // The batched I/O layer's win, straight from the result counters.
  const auto& io = send_result.io;
  std::printf("  datagram I/O: %.1f datagrams/send-syscall\n",
              io.send_syscalls > 0 ? static_cast<double>(io.datagrams_sent) /
                                         static_cast<double>(io.send_syscalls)
                                   : 0.0);
  std::printf("  bytes verified: %s\n", ok ? "yes" : "NO");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string mode = argc > 1 ? argv[1] : "demo";
  if (mode == "demo") return run_demo();

  if (mode == "recv" && argc == 5) {
    fobs::posix::ReceiverOptions opts;
    opts.data_port = static_cast<std::uint16_t>(std::atoi(argv[2]));
    opts.control_port = static_cast<std::uint16_t>(opts.data_port + 1);
    opts.endpoint.timeout_ms = 300'000;
    std::vector<std::uint8_t> buffer(static_cast<std::size_t>(std::atoll(argv[3])));
    std::printf("receiving %zu bytes on UDP port %u...\n", buffer.size(), opts.data_port);
    const auto result = fobs::posix::receive_object(opts, std::span<std::uint8_t>(buffer));
    if (!result.completed()) {
      std::printf("receive failed [%s]: %s\n", to_string(result.status),
                  result.error.c_str());
      return 1;
    }
    if (!write_file(argv[4], buffer)) {
      std::printf("could not write %s\n", argv[4]);
      return 1;
    }
    const auto& flow = result.flows[0];
    std::printf("done: %.0f Mb/s, %lld packets (%lld duplicate)\n", result.goodput_mbps,
                static_cast<long long>(flow.packets_received),
                static_cast<long long>(flow.duplicates));
    return 0;
  }

  if (mode == "send" && argc == 5) {
    fobs::posix::SenderOptions opts;
    opts.receiver_host = argv[2];
    opts.data_port = static_cast<std::uint16_t>(std::atoi(argv[3]));
    opts.control_port = static_cast<std::uint16_t>(opts.data_port + 1);
    opts.endpoint.timeout_ms = 300'000;
    // Memory-map the file: the object buffer spans the whole file
    // without staging it through the heap.
    const auto object = fobs::core::TransferObject::map_file(argv[4]);
    if (!object) {
      std::printf("could not map %s (missing or empty file)\n", argv[4]);
      return 1;
    }
    std::printf("sending %lld bytes to %s:%u (checksum %016llx)...\n",
                static_cast<long long>(object->size()), opts.receiver_host.c_str(),
                opts.data_port, static_cast<unsigned long long>(object->checksum()));
    const auto result = fobs::posix::send_object(opts, object->view());
    if (!result.completed()) {
      std::printf("send failed [%s]: %s\n", to_string(result.status), result.error.c_str());
      return 1;
    }
    std::printf("done: %.0f Mb/s, waste %.2f%%, %.1f datagrams/send-syscall\n",
                result.goodput_mbps, 100.0 * result.flows[0].waste,
                result.io.send_syscalls > 0
                    ? static_cast<double>(result.io.datagrams_sent) /
                          static_cast<double>(result.io.send_syscalls)
                    : 0.0);
    return 0;
  }

  std::printf(
      "usage:\n"
      "  %s demo\n"
      "  %s recv <port> <bytes> <outfile>\n"
      "  %s send <host> <port> <file>\n",
      argv[0], argv[0], argv[0]);
  return 2;
}

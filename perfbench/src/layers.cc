// Per-layer replays: each layer's public functions timed in isolation at
// the workload's geometry, so a change to one layer shows in its own
// number as well as end to end. Each cost is a median of repetitions.
#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>

#include <algorithm>
#include <array>
#include <cstdio>
#include <cstring>
#include <limits>
#include <optional>
#include <span>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "fobs/object.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/codec.h"
#include "fobs/receiver_core.h"
#include "fobs/sender_core.h"
#include "net/datagram_channel.h"
#include "telemetry/metrics.h"
#include "workloads.h"

namespace perfbench {

namespace {

constexpr int kReps = 5;
constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();

double ns_since(Clock::time_point start) {
  return std::chrono::duration<double, std::nano>(Clock::now() - start).count();
}

double ns_per_call(Clock::time_point start, std::int64_t calls) {
  return ns_since(start) / static_cast<double>(std::max<std::int64_t>(calls, 1));
}

std::vector<std::uint8_t> random_bytes(std::size_t count, std::uint64_t seed) {
  fobs::util::Rng rng(seed);
  std::vector<std::uint8_t> bytes(count);
  for (auto& byte : bytes) byte = static_cast<std::uint8_t>(rng.next());
  return bytes;
}

double time_crc32(const std::vector<std::uint8_t>& payload) {
  const auto calls = static_cast<std::int64_t>(
      std::max<std::size_t>(1, (std::size_t{4} << 20) / payload.size()));
  std::vector<double> reps;
  std::uint32_t crc = 0;
  for (int r = 0; r < kReps; ++r) {
    const auto start = Clock::now();
    // Chaining each result into the next seed keeps every call live.
    for (std::int64_t i = 0; i < calls; ++i) {
      crc = fobs::util::crc32(payload.data(), payload.size(), crc);
    }
    reps.push_back(ns_per_call(start, calls));
  }
  keep(crc);
  return median(reps);
}

void time_data_header(LayerCosts& costs) {
  constexpr std::int64_t kCalls = 1 << 20;
  std::array<std::uint8_t, fobs::posix::kDataHeaderSize> wire{};
  std::vector<double> encode;
  std::vector<double> decode;
  std::int64_t seqs = 0;
  for (int r = 0; r < kReps; ++r) {
    auto start = Clock::now();
    for (std::int64_t i = 0; i < kCalls; ++i) {
      fobs::posix::encode_data_header({i, static_cast<std::uint32_t>(i)}, wire.data());
      keep(wire);
    }
    encode.push_back(ns_per_call(start, kCalls));
    start = Clock::now();
    for (std::int64_t i = 0; i < kCalls; ++i) {
      const auto header = fobs::posix::decode_data_header(wire.data(), wire.size());
      seqs += header ? header->seq : 0;
      keep(seqs);
    }
    decode.push_back(ns_per_call(start, kCalls));
  }
  costs.header_encode_ns = median(encode);
  costs.header_decode_ns = median(decode);
}

/// One replayed transfer: per-call time totals and the ACKs it built.
struct Replay {
  double select_ns = 0.0;
  double on_data_ns = 0.0;
  double make_ack_ns = 0.0;
  double on_ack_ns = 0.0;
  std::int64_t sends = 0;
  std::int64_t arrivals = 0;
  std::int64_t acks = 0;
  std::vector<fobs::core::AckMessage> sample_acks;
};

/// Runs SenderCore against ReceiverCore in memory at the paper's B = 2
/// and ack frequency 64, losing `drop` of the data packets (seeded).
/// Calls are timed one ACK interval at a time, so the clock's own cost
/// is spread over 64 calls.
Replay replay_cores(const fobs::core::TransferSpec& spec, double drop, std::uint64_t seed) {
  fobs::core::SenderCore sender(spec, fobs::core::SenderConfig{});
  const fobs::core::ReceiverConfig receiver_config{};
  fobs::core::ReceiverCore receiver(spec, receiver_config);
  fobs::util::Rng rng(seed);
  const auto interval = static_cast<std::size_t>(receiver_config.ack_frequency);
  std::vector<fobs::core::PacketSeq> selected;
  std::vector<fobs::core::PacketSeq> arrived;
  Replay replay;
  while (!receiver.complete()) {
    selected.clear();
    auto start = Clock::now();
    while (selected.size() < interval) {
      const auto seq = sender.select_next();
      if (!seq) break;
      selected.push_back(*seq);
    }
    replay.select_ns += ns_since(start);
    replay.sends += static_cast<std::int64_t>(selected.size());
    if (selected.empty()) break;  // the sender's view never runs ahead of the receiver
    arrived.clear();
    for (const auto seq : selected) {
      if (!rng.bernoulli(drop)) arrived.push_back(seq);
    }
    bool ack_due = false;
    start = Clock::now();
    for (const auto seq : arrived) ack_due = receiver.on_data_packet(seq).ack_due || ack_due;
    replay.on_data_ns += ns_since(start);
    replay.arrivals += static_cast<std::int64_t>(arrived.size());
    if (!ack_due) continue;
    start = Clock::now();
    fobs::core::AckMessage ack = receiver.make_ack();
    replay.make_ack_ns += ns_since(start);
    start = Clock::now();
    keep(sender.on_ack(ack));
    replay.on_ack_ns += ns_since(start);
    ++replay.acks;
    if (replay.sample_acks.size() < 512) replay.sample_acks.push_back(std::move(ack));
  }
  return replay;
}

void time_ack_codec(const std::vector<fobs::core::AckMessage>& acks, LayerCosts& costs) {
  costs.ack_encode_ns = costs.ack_decode_ns = costs.ack_bytes = kNaN;
  if (acks.empty()) return;
  std::vector<std::vector<std::uint8_t>> wire;
  double bytes = 0.0;
  for (const auto& ack : acks) {
    wire.push_back(fobs::posix::encode_ack(ack));
    bytes += static_cast<double>(wire.back().size());
  }
  const auto count = static_cast<std::int64_t>(acks.size());
  const std::int64_t passes = std::max<std::int64_t>(1, 20'000 / count);
  std::vector<double> encode;
  std::vector<double> decode;
  for (int r = 0; r < kReps; ++r) {
    auto start = Clock::now();
    for (std::int64_t p = 0; p < passes; ++p) {
      for (const auto& ack : acks) keep(fobs::posix::encode_ack(ack).size());
    }
    encode.push_back(ns_per_call(start, passes * count));
    start = Clock::now();
    for (std::int64_t p = 0; p < passes; ++p) {
      for (const auto& datagram : wire) {
        keep(fobs::posix::decode_ack(datagram.data(), datagram.size()).has_value());
      }
    }
    decode.push_back(ns_per_call(start, passes * count));
  }
  costs.ack_bytes = bytes / static_cast<double>(count);
  costs.ack_encode_ns = median(encode);
  costs.ack_decode_ns = median(decode);
}

/// Loopback pump through DatagramChannel at the workload's datagram
/// size, in the paper's 2-datagram batches, with the transfer's default
/// I/O options. Single-threaded: a round of sends, then a drain.
void time_datagram_channel(std::int64_t packet_bytes, std::uint64_t seed, LayerCosts& costs) {
  costs.send_ns_per_dgram = costs.recv_ns_per_dgram = kNaN;
  const std::size_t datagram_bytes =
      fobs::posix::kDataHeaderSize + static_cast<std::size_t>(packet_bytes);
  const fobs::net::IoOptions io{};
  std::string error;
  auto rx = fobs::net::DatagramChannel::open(io, datagram_bytes, std::uint16_t{0}, &error);
  auto tx = fobs::net::DatagramChannel::open(io, datagram_bytes, std::nullopt, &error);
  if (!rx.valid() || !tx.valid()) return;
  sockaddr_in dest{};
  dest.sin_family = AF_INET;
  dest.sin_port = htons(rx.local_port());
  ::inet_pton(AF_INET, "127.0.0.1", &dest.sin_addr);
  int rcvbuf = 0;
  socklen_t length = sizeof rcvbuf;
  ::getsockopt(rx.fd(), SOL_SOCKET, SO_RCVBUF, &rcvbuf, &length);
  // Each round fills at most half the receive buffer (counting the
  // kernel's per-datagram overhead), so the drain sees every datagram.
  const int round = std::clamp(rcvbuf / static_cast<int>(datagram_bytes + 1024) / 4 * 2, 2, 64);
  const std::vector<std::uint8_t> header(fobs::posix::kDataHeaderSize, 0x5A);
  const std::vector<std::uint8_t> payload =
      random_bytes(static_cast<std::size_t>(packet_bytes), seed);
  const fobs::net::DatagramView view{std::span<const std::uint8_t>(header),
                                     std::span<const std::uint8_t>(payload)};
  const std::array<fobs::net::DatagramView, 2> batch{view, view};
  std::vector<fobs::net::RecvView> views(static_cast<std::size_t>(io.recv_batch));
  const std::int64_t target = std::max<std::int64_t>(
      4096, (std::int64_t{64} << 20) / static_cast<std::int64_t>(datagram_bytes));
  double send_ns = 0.0;
  double recv_ns = 0.0;
  std::int64_t sent = 0;
  std::int64_t received = 0;
  while (sent < target) {
    auto start = Clock::now();
    for (int i = 0; i < round; i += 2) {
      if (!tx.send_batch(batch, dest, &error)) return;
    }
    send_ns += ns_since(start);
    sent += round;
    start = Clock::now();
    int got = 0;
    for (int idle = 0; got < round && idle < 100;) {
      const int n = rx.recv_batch(views, &error);
      if (n > 0) {
        got += n;
      } else {
        ++idle;
      }
    }
    recv_ns += ns_since(start);
    received += got;
  }
  costs.send_ns_per_dgram = send_ns / static_cast<double>(sent);
  if (received > 0) costs.recv_ns_per_dgram = recv_ns / static_cast<double>(received);
}

void time_object(const LayerInputs& inputs, LayerCosts& costs) {
  costs.place_ns_per_pkt = costs.sync_ms = costs.checksum_ms = kNaN;
  const std::string path = inputs.scratch + "/place.bin";
  const std::vector<std::uint8_t> payload =
      random_bytes(static_cast<std::size_t>(inputs.packet_bytes), inputs.seed);
  std::vector<double> place;
  std::vector<double> sync;
  for (int r = 0; r < 3; ++r) {
    // A fresh file each time: a fetch receives into a new .part mapping,
    // so first-touch page faults belong to placement.
    auto mapping = fobs::core::TransferObject::map_file_rw(path, inputs.object_bytes);
    if (!mapping) break;
    const std::span<std::uint8_t> view = mapping->mutable_view();
    std::int64_t packets = 0;
    auto start = Clock::now();
    for (std::size_t offset = 0; offset < view.size(); offset += payload.size(), ++packets) {
      std::memcpy(view.data() + offset, payload.data(),
                  std::min(payload.size(), view.size() - offset));
    }
    place.push_back(ns_per_call(start, packets));
    start = Clock::now();
    mapping->sync();
    sync.push_back(ns_since(start) / 1e6);
    mapping.reset();
    std::remove(path.c_str());
  }
  if (!place.empty()) {
    costs.place_ns_per_pkt = median(place);
    costs.sync_ms = median(sync);
  }
  if (const auto object = fobs::core::TransferObject::map_file(inputs.checksum_path)) {
    // fetch_file checksums a mapping whose pages it has just written, so
    // fault these in first and time only the hashing.
    keep(object->checksum());
    std::vector<double> ms;
    for (int r = 0; r < 3; ++r) {
      const auto start = Clock::now();
      keep(object->checksum());
      ms.push_back(ns_since(start) / 1e6);
    }
    costs.checksum_ms = median(ms);
  }
}

double time_checkpoint_save(const LayerInputs& inputs) {
  fobs::posix::Checkpoint checkpoint;
  checkpoint.object_bytes = inputs.flow_object_bytes;
  checkpoint.packet_bytes = inputs.packet_bytes;
  checkpoint.received_count = checkpoint.packet_count() / 2;
  checkpoint.bitmap = random_bytes(static_cast<std::size_t>((checkpoint.packet_count() + 7) / 8),
                                   inputs.seed);
  const std::string path = inputs.scratch + "/replay.ckpt";
  std::vector<double> us;
  for (int i = 0; i < 40; ++i) {
    const auto start = Clock::now();
    if (!fobs::posix::save_checkpoint(path, checkpoint)) return kNaN;
    us.push_back(ns_since(start) / 1e3);
  }
  fobs::posix::remove_checkpoint(path);
  return median(us);
}

void time_telemetry(LayerCosts& costs) {
  constexpr std::int64_t kIncrements = 1 << 22;
  constexpr std::int64_t kLookups = 1 << 16;
  fobs::telemetry::MetricsRegistry local;
  auto& counter = local.counter("perfbench.counter");
  auto& global = fobs::telemetry::MetricsRegistry::global();
  std::vector<double> increments;
  std::vector<double> lookups;
  for (int r = 0; r < kReps; ++r) {
    auto start = Clock::now();
    for (std::int64_t i = 0; i < kIncrements; ++i) counter.inc();
    increments.push_back(ns_per_call(start, kIncrements));
    start = Clock::now();
    for (std::int64_t i = 0; i < kLookups; ++i) keep(&global.counter("fobs.io.syscalls"));
    lookups.push_back(ns_per_call(start, kLookups));
  }
  keep(counter.value());
  costs.counter_inc_ns = median(increments);
  costs.lookup_ns = median(lookups);
}

}  // namespace

LayerCosts measure_layers(const LayerInputs& inputs, SpanLog& spans, std::uint64_t parent) {
  LayerCosts costs;
  {
    const SpanScope span(spans, "replay.common", parent);
    costs.crc32_ns =
        time_crc32(random_bytes(static_cast<std::size_t>(inputs.packet_bytes), inputs.seed));
  }
  {
    const SpanScope span(spans, "replay.codec", parent);
    time_data_header(costs);
  }
  const fobs::core::TransferSpec spec{inputs.flow_object_bytes, inputs.packet_bytes};
  std::vector<Replay> replays;
  for (int r = 0; r < 3; ++r) {
    const SpanScope span(spans, "replay.core", parent, r);
    replays.push_back(
        replay_cores(spec, inputs.drop_fraction, inputs.seed + static_cast<std::uint64_t>(r)));
  }
  const auto per_call = [&replays](double Replay::*total, std::int64_t Replay::*calls) {
    std::vector<double> values;
    for (const Replay& replay : replays) {
      values.push_back(replay.*total /
                       static_cast<double>(std::max<std::int64_t>(replay.*calls, 1)));
    }
    return median(values);
  };
  costs.select_next_ns = per_call(&Replay::select_ns, &Replay::sends);
  costs.on_data_packet_ns = per_call(&Replay::on_data_ns, &Replay::arrivals);
  costs.make_ack_ns = per_call(&Replay::make_ack_ns, &Replay::acks);
  costs.on_ack_ns = per_call(&Replay::on_ack_ns, &Replay::acks);
  costs.acks_per_send = static_cast<double>(replays.front().acks) /
                        static_cast<double>(std::max<std::int64_t>(replays.front().sends, 1));
  {
    const SpanScope span(spans, "replay.codec_ack", parent);
    time_ack_codec(replays.front().sample_acks, costs);
  }
  {
    const SpanScope span(spans, "replay.net", parent);
    time_datagram_channel(inputs.packet_bytes, inputs.seed, costs);
  }
  {
    const SpanScope span(spans, "replay.object", parent);
    time_object(inputs, costs);
  }
  {
    const SpanScope span(spans, "replay.checkpoint", parent);
    costs.checkpoint_save_us = time_checkpoint_save(inputs);
  }
  {
    const SpanScope span(spans, "replay.telemetry", parent);
    time_telemetry(costs);
  }
  return costs;
}

void report_layer_costs(const LayerCosts& costs, Report& report) {
  report.metric("common.crc32_ns_per_pkt", costs.crc32_ns, "ns");
  report.metric("codec.data_header_ns", costs.header_encode_ns + costs.header_decode_ns, "ns");
  report.metric("codec.ack_encode_ns", costs.ack_encode_ns, "ns");
  report.metric("codec.ack_decode_ns", costs.ack_decode_ns, "ns");
  report.metric("codec.ack_bytes", costs.ack_bytes, "bytes");
  report.metric("core.select_next_ns", costs.select_next_ns, "ns");
  report.metric("core.on_ack_ns", costs.on_ack_ns, "ns");
  report.metric("core.on_data_packet_ns", costs.on_data_packet_ns, "ns");
  report.metric("core.make_ack_ns", costs.make_ack_ns, "ns");
  report.metric("net.send_ns_per_dgram", costs.send_ns_per_dgram, "ns");
  report.metric("net.recv_ns_per_dgram", costs.recv_ns_per_dgram, "ns");
  report.metric("object.place_ns_per_pkt", costs.place_ns_per_pkt, "ns");
  report.metric("object.checksum_ms", costs.checksum_ms, "ms");
  report.metric("object.sync_ms", costs.sync_ms, "ms");
  report.metric("checkpoint.save_us", costs.checkpoint_save_us, "us");
  report.metric("telemetry.counter_inc_ns", costs.counter_inc_ns, "ns");
  report.metric("telemetry.lookup_ns", costs.lookup_ns, "ns");
}

}  // namespace perfbench

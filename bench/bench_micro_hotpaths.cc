// Microbenchmarks (google-benchmark) for the hot paths the simulator
// and protocol cores hit millions of times per transfer, and for the
// CRC-32C every POSIX packet runs on both ends. The datagram
// channel's per-datagram cost is measured by perfbench's net.* metrics.
#include <benchmark/benchmark.h>

#include <cstdint>
#include <vector>

#include "common/bitmap.h"
#include "common/crc32.h"
#include "common/rng.h"
#include "exp/runner.h"
#include "fobs/ack.h"
#include "fobs/receiver_core.h"
#include "fobs/selection.h"
#include "fobs/sender_core.h"
#include "net/seq_range_set.h"
#include "sim/simulation.h"

namespace {

using fobs::util::Bitmap;
using fobs::util::Rng;

// One packet's payload at range(0) bytes; range(1) picks the path:
// 0 = dispatched (SSE4.2 where the CPU has it), 1 = portable slicing-by-8.
void BM_Crc32(benchmark::State& state) {
  const auto len = static_cast<std::size_t>(state.range(0));
  const auto crc = state.range(1) == 0 ? fobs::util::crc32 : fobs::util::crc32_portable;
  Rng rng(3);
  std::vector<std::uint8_t> payload(len);
  for (auto& byte : payload) byte = static_cast<std::uint8_t>(rng.next());
  std::uint32_t seed = 0;
  for (auto _ : state) {
    seed = crc(payload.data(), payload.size(), seed);
    benchmark::DoNotOptimize(seed);
  }
  state.SetBytesProcessed(static_cast<std::int64_t>(state.iterations() * len));
}
BENCHMARK(BM_Crc32)->ArgsProduct({{1024, 8192}, {0, 1}});

void BM_BitmapSet(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bitmap bitmap(n);
  Rng rng(1);
  std::size_t i = 0;
  for (auto _ : state) {
    bitmap.set(i);
    i = (i + 7919) % n;  // prime stride touches everything
    if (bitmap.all_set()) bitmap.clear_all();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitmapSet)->Arg(40960)->Arg(1 << 20);

void BM_BitmapFirstClearCircular(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  Bitmap bitmap(n);
  // Leave every 64th bit clear — the worst realistic density late in a
  // transfer.
  for (std::size_t i = 0; i < n; ++i) {
    if (i % 64 != 0) bitmap.set(i);
  }
  std::size_t cursor = 0;
  for (auto _ : state) {
    auto hit = bitmap.first_clear_circular(cursor);
    benchmark::DoNotOptimize(hit);
    cursor = *hit + 1;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_BitmapFirstClearCircular)->Arg(40960);

void BM_AckBuildAndApply(benchmark::State& state) {
  const std::int64_t packets = state.range(0);
  Bitmap received(static_cast<std::size_t>(packets));
  Rng rng(2);
  for (std::int64_t i = 0; i < packets; ++i) {
    if (!rng.bernoulli(0.02)) received.set(static_cast<std::size_t>(i));
  }
  fobs::core::AckBuilder builder(packets, 1024);
  Bitmap view(static_cast<std::size_t>(packets));
  for (auto _ : state) {
    auto ack = builder.build(received, 0, static_cast<std::int64_t>(received.count()));
    benchmark::DoNotOptimize(fobs::core::apply_ack(ack, view));
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_AckBuildAndApply)->Arg(40960);

void BM_SenderSelectNext(benchmark::State& state) {
  fobs::core::TransferSpec spec{40 * 1024 * 1024, 1024};
  fobs::core::SenderConfig config;
  config.selection = static_cast<fobs::core::SelectionKind>(state.range(0));
  fobs::core::SenderCore sender(spec, config);
  for (auto _ : state) {
    benchmark::DoNotOptimize(sender.select_next());
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SenderSelectNext)
    ->Arg(static_cast<int>(fobs::core::SelectionKind::kCircular))
    ->Arg(static_cast<int>(fobs::core::SelectionKind::kRandomUnacked));

void BM_ReceiverOnPacket(benchmark::State& state) {
  fobs::core::TransferSpec spec{40 * 1024 * 1024, 1024};
  fobs::core::ReceiverConfig config;
  config.ack_frequency = 64;
  fobs::core::ReceiverCore receiver(spec, config);
  std::int64_t seq = 0;
  const std::int64_t n = spec.packet_count();
  for (auto _ : state) {
    benchmark::DoNotOptimize(receiver.on_data_packet(seq));
    seq = (seq + 7919) % n;
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_ReceiverOnPacket);

void BM_EventQueueScheduleRun(benchmark::State& state) {
  fobs::sim::Simulation sim;
  fobs::util::Rng rng(3);
  for (auto _ : state) {
    sim.schedule_in(fobs::util::Duration::nanoseconds(
                        static_cast<std::int64_t>(rng.uniform_int(0, 10000))),
                    [] {});
    sim.step();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_EventQueueScheduleRun);

void BM_SeqRangeSetInsert(benchmark::State& state) {
  fobs::net::SeqRangeSet set;
  fobs::util::Rng rng(4);
  for (auto _ : state) {
    const auto b = rng.uniform_int(0, 1'000'000) * 1460;
    set.insert(b, b + 1460);
    if (set.range_count() > 4096) set.clear();
  }
  state.SetItemsProcessed(static_cast<std::int64_t>(state.iterations()));
}
BENCHMARK(BM_SeqRangeSetInsert);

// Wall-clock cost of simulating one whole transfer (how fast the
// simulator itself is — the sweep benches run hundreds of these).
void BM_SimulateWholeTransfer(benchmark::State& state) {
  const std::int64_t mb = state.range(0);
  std::uint64_t seed = 1;
  for (auto _ : state) {
    fobs::exp::FobsRunParams params;
    params.object_bytes = mb * 1024 * 1024;
    const auto result =
        fobs::exp::run_fobs(fobs::exp::spec_for(fobs::exp::PathId::kShortHaul), params,
                            seed++);
    benchmark::DoNotOptimize(result.packets_sent);
  }
  state.SetItemsProcessed(state.iterations() * mb * 1024);  // packets simulated
}
BENCHMARK(BM_SimulateWholeTransfer)->Arg(4)->Arg(40)->Unit(benchmark::kMillisecond);

}  // namespace

int main(int argc, char** argv) {
  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}

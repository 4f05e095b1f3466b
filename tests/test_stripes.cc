// Striped multi-flow FOBS: the acceptance suite for the striping
// subsystem (fobs/stripe/).
//
//  - StripePlan: the contiguous partition is disjoint and complete, the
//    shared round_robin_split rule, rejection edges.
//  - One checkpoint per transfer: flows fold disjoint ranges into one
//    file, also concurrently, and each restores only its own; a torn
//    file is ignored; only the completion path removes the file, so a
//    late fold cannot leave a stale one behind.
//  - Loopback transfers over real sockets: a 4-stripe >= 64 MiB
//    send_object/receive_object pair lands byte-identical
//    (checksum-verified); rejected options launch no flow; killing one
//    stripe's flow mid-transfer degrades but stays resumable, and the
//    resume completes byte-identical; an interrupted fetch resumes at a
//    different stripe count (4 -> 1 and 1 -> 4) from the one checkpoint.
//
// Port block: 30300-30499 (test_engine owns 30000-30099, fileserver
// 30100-30199, fault suites 31xxx/32xxx).
#include <gtest/gtest.h>

#include <sys/stat.h>
#include <unistd.h>

#include <atomic>
#include <cstdio>
#include <cstdint>
#include <cstring>
#include <numeric>
#include <set>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "common/bitmap.h"
#include "fobs/object.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/engine.h"
#include "fobs/posix/fileserver.h"
#include "fobs/stripe/plan.h"
#include "fobs/stripe/striped_transfer.h"

namespace fobs {
namespace {

using core::TransferSpec;
using stripe::StripePlan;

std::uint64_t fnv1a(const std::uint8_t* data, std::size_t len) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < len; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

// ---------------------------------------------------------------------------
// StripePlan
// ---------------------------------------------------------------------------

void expect_partition_is_disjoint_and_complete(const StripePlan& plan) {
  const auto& spec = plan.spec();
  const std::int64_t packets = spec.packet_count();
  std::int64_t total_packets = 0;
  std::int64_t total_bytes = 0;
  std::set<std::int64_t> seen;
  for (int s = 0; s < plan.stripe_count(); ++s) {
    EXPECT_GE(plan.stripe_packets(s), 1) << "stripe " << s << " is empty";
    EXPECT_EQ(plan.stripe_spec(s).packet_count(), plan.stripe_packets(s)) << "stripe " << s;
    total_packets += plan.stripe_packets(s);
    total_bytes += plan.stripe_bytes(s);
    for (std::int64_t local = 0; local < plan.stripe_packets(s); ++local) {
      const auto global = plan.first_packet(s) + local;
      EXPECT_GE(global, 0);
      EXPECT_LT(global, packets);
      EXPECT_TRUE(seen.insert(global).second) << "global " << global << " owned twice";
      // The stripe viewed as a standalone transfer places local packet
      // `local` at the same byte offset, relative to the stripe's first
      // byte, as the whole object places the global packet, with the
      // same payload size.
      EXPECT_EQ(spec.offset_of(plan.first_packet(s)) + plan.stripe_spec(s).offset_of(local),
                spec.offset_of(global));
      EXPECT_EQ(plan.stripe_spec(s).payload_bytes(local), spec.payload_bytes(global));
    }
  }
  EXPECT_EQ(total_packets, packets);
  EXPECT_EQ(total_bytes, spec.object_bytes);
  EXPECT_EQ(static_cast<std::int64_t>(seen.size()), packets);
}

TEST(StripePlan, PartitionsAreDisjointAndComplete) {
  // Geometries chosen to cover: even split, remainder packets, a short
  // last packet, stripes == packets, and a single packet.
  const std::vector<TransferSpec> specs = {
      {64 * 1024, 1024},     // 64 even packets
      {65 * 1024 + 17, 1024},  // short last packet, remainder spread
      {7 * 512 + 100, 512},  // 8 packets, short tail
      {1000, 1000},          // exactly one packet
  };
  for (const auto& spec : specs) {
    const int max = StripePlan::max_stripes(spec);
    for (int stripes : {1, 2, 3, 4, max}) {
      if (stripes < 1 || stripes > max) continue;
      StripePlan plan;
      std::string error;
      ASSERT_TRUE(StripePlan::make(spec, stripes, &plan, &error)) << "x" << stripes << ": "
                                                                   << error;
      expect_partition_is_disjoint_and_complete(plan);
      // Contiguous: the stripes tile [0, packet_count) in order, and
      // stripe s's bytes end where stripe s+1's begin.
      EXPECT_EQ(plan.first_packet(0), 0);
      for (int s = 0; s < plan.stripe_count(); ++s) {
        const auto end = plan.first_packet(s) + plan.stripe_packets(s);
        if (s + 1 < plan.stripe_count()) {
          EXPECT_EQ(plan.first_packet(s + 1), end);
          EXPECT_EQ(spec.offset_of(plan.first_packet(s)) + plan.stripe_bytes(s),
                    spec.offset_of(plan.first_packet(s + 1)));
        } else {
          EXPECT_EQ(end, spec.packet_count());
          EXPECT_EQ(spec.offset_of(plan.first_packet(s)) + plan.stripe_bytes(s),
                    spec.object_bytes);
        }
      }
    }
  }
}

TEST(StripePlan, ShortLastPacketIsTheLastLocalPacketOfItsStripe) {
  const TransferSpec spec{10 * 1024 + 7, 1024};  // 11 packets, last is 7 B
  StripePlan plan;
  ASSERT_TRUE(StripePlan::make(spec, 4, &plan));
  const int owner = plan.stripe_count() - 1;
  EXPECT_EQ(owner, 3);
  const auto local = plan.stripe_packets(owner) - 1;
  EXPECT_EQ(plan.first_packet(owner) + local, spec.packet_count() - 1)
      << "short packet must be the last stripe's last local packet";
  EXPECT_EQ(plan.stripe_spec(owner).payload_bytes(local), 7);
  for (int s = 0; s < owner; ++s) {
    EXPECT_EQ(plan.stripe_bytes(s), plan.stripe_packets(s) * spec.packet_bytes)
        << "stripe " << s << " holds only full packets";
  }
}

TEST(StripePlan, RejectsUnsatisfiableRequests) {
  StripePlan plan;
  std::string error;
  // More stripes than packets: an empty stripe would dead-lock.
  EXPECT_FALSE(StripePlan::make({4 * 1024, 1024}, 5, &plan, &error));
  EXPECT_FALSE(error.empty());
  EXPECT_FALSE(StripePlan::make({4 * 1024, 1024}, 0, &plan));
  EXPECT_FALSE(StripePlan::make({0, 1024}, 1, &plan));
  EXPECT_FALSE(StripePlan::make({1024, 0}, 1, &plan));
  // max_stripes is the usable clamp.
  EXPECT_EQ(StripePlan::max_stripes({4 * 1024, 1024}), 4);
  EXPECT_EQ(StripePlan::max_stripes({1024 * 1024, 1024}), stripe::kMaxStripes);
  EXPECT_EQ(StripePlan::max_stripes({0, 1024}), 0);
}

TEST(StripePlan, RoundRobinSplitFrontLoadsTheRemainder) {
  // The one shared partition rule (also used by the PSockets baseline):
  // bucket i gets total/parts + (i < total % parts).
  const auto split = stripe::round_robin_split(10, 4);
  EXPECT_EQ(split, (std::vector<std::int64_t>{3, 3, 2, 2}));
  const auto even = stripe::round_robin_split(8, 4);
  EXPECT_EQ(even, (std::vector<std::int64_t>{2, 2, 2, 2}));
  const auto big = stripe::round_robin_split(40'000'000, 7);
  EXPECT_EQ(std::accumulate(big.begin(), big.end(), std::int64_t{0}), 40'000'000);
  EXPECT_LE(big.front() - big.back(), 1);
}

// ---------------------------------------------------------------------------
// One checkpoint per transfer
// ---------------------------------------------------------------------------

bool file_exists(const std::string& path) { return ::access(path.c_str(), F_OK) == 0; }

/// Flow `s`'s range of `checkpoint` as a bitmap of the stripe's size.
util::Bitmap restored_range(const posix::TransferCheckpoint& checkpoint, const StripePlan& plan,
                            int s) {
  util::Bitmap restored(static_cast<std::size_t>(plan.stripe_packets(s)));
  const auto packed =
      checkpoint.restored(static_cast<std::size_t>(plan.first_packet(s)), restored.size());
  if (packed) restored.merge_range(0, restored.size(), packed->data(), packed->size());
  return restored;
}

TEST(TransferCheckpoint, FlowsFoldDisjointRangesIntoOneFile) {
  const std::string path = ::testing::TempDir() + "fobs_stripes_ranges.ckpt";
  posix::remove_checkpoint(path);
  const TransferSpec spec{64 * 1024 + 321, 4096};  // 17 packets
  StripePlan plan;
  ASSERT_TRUE(StripePlan::make(spec, 3, &plan));
  auto first_of = [&](int s) { return static_cast<std::size_t>(plan.first_packet(s)); };
  posix::TransferCheckpoint checkpoint(path, spec.object_bytes, spec.packet_bytes);

  // Stripe 0 has every other local packet, stripe 2 its first one,
  // stripe 1 nothing yet.
  util::Bitmap stripe0(static_cast<std::size_t>(plan.stripe_packets(0)));
  for (std::size_t i = 0; i < stripe0.size(); i += 2) stripe0.set(i);
  util::Bitmap stripe2(static_cast<std::size_t>(plan.stripe_packets(2)));
  stripe2.set(0);
  ASSERT_TRUE(checkpoint.fold(first_of(0), stripe0));
  ASSERT_TRUE(checkpoint.fold(first_of(2), stripe2));

  // One object-level file holds both ranges.
  const auto object_level = posix::load_checkpoint(path);
  ASSERT_TRUE(object_level.has_value());
  EXPECT_EQ(object_level->object_bytes, spec.object_bytes);
  EXPECT_EQ(object_level->received_count,
            static_cast<std::int64_t>(stripe0.count() + stripe2.count()));

  // The next attempt's flows each restore exactly their own range.
  const posix::TransferCheckpoint reloaded(path, spec.object_bytes, spec.packet_bytes);
  EXPECT_TRUE(reloaded.on_disk());
  EXPECT_TRUE(restored_range(reloaded, plan, 0) == stripe0);
  EXPECT_TRUE(restored_range(reloaded, plan, 2) == stripe2);
  ASSERT_TRUE(reloaded.restored(first_of(1), 1).has_value());
  EXPECT_TRUE(restored_range(reloaded, plan, 1).none_set());

  // A different geometry never matches.
  const posix::TransferCheckpoint foreign(path, spec.object_bytes, 1024);
  EXPECT_FALSE(foreign.restored(0, 1).has_value());
  EXPECT_FALSE(foreign.on_disk());

  // Full ranges do not remove the file; the completion path does.
  for (int s = 0; s < plan.stripe_count(); ++s) {
    util::Bitmap full(static_cast<std::size_t>(plan.stripe_packets(s)));
    full.set_all();
    ASSERT_TRUE(checkpoint.fold(first_of(s), full));
  }
  const auto full = posix::load_checkpoint(path);
  ASSERT_TRUE(full.has_value()) << "a fold never removes the file";
  EXPECT_EQ(full->received_count, spec.packet_count());
  checkpoint.complete();
  EXPECT_FALSE(checkpoint.on_disk());
  EXPECT_FALSE(posix::load_checkpoint(path).has_value());
}

TEST(TransferCheckpoint, ConcurrentFoldsNeverLoseAnotherFlowsBits) {
  const std::string path = ::testing::TempDir() + "fobs_stripes_concurrent.ckpt";
  posix::remove_checkpoint(path);
  const TransferSpec spec{8 * 61 * 1024 - 100, 1024};  // 488 packets
  constexpr int kStripes = 8;
  StripePlan plan;
  ASSERT_TRUE(StripePlan::make(spec, kStripes, &plan));
  posix::TransferCheckpoint checkpoint(path, spec.object_bytes, spec.packet_bytes);

  // Every stripe sets its even local packets one at a time and folds
  // after each, all at once: a fold racing another would drop some
  // other stripe's bits, or tear the file both save.
  std::vector<util::Bitmap> expected;
  for (int s = 0; s < kStripes; ++s) {
    expected.emplace_back(static_cast<std::size_t>(plan.stripe_packets(s)));
  }
  std::atomic<int> failed_folds{0};
  std::vector<std::thread> flows;
  for (int s = 0; s < kStripes; ++s) {
    flows.emplace_back([&, s] {
      util::Bitmap& local = expected[static_cast<std::size_t>(s)];
      for (std::size_t i = 0; i < local.size(); i += 2) {
        local.set(i);
        if (!checkpoint.fold(static_cast<std::size_t>(plan.first_packet(s)), local)) {
          ++failed_folds;
        }
      }
    });
  }
  for (auto& flow : flows) flow.join();
  EXPECT_EQ(failed_folds.load(), 0);

  const posix::TransferCheckpoint reloaded(path, spec.object_bytes, spec.packet_bytes);
  std::size_t total = 0;
  for (int s = 0; s < kStripes; ++s) {
    ASSERT_TRUE(reloaded.restored(static_cast<std::size_t>(plan.first_packet(s)), 1))
        << "stripe " << s;
    const auto restored = restored_range(reloaded, plan, s);
    EXPECT_TRUE(restored == expected[static_cast<std::size_t>(s)]) << "stripe " << s;
    total += restored.count();
  }
  const auto object_level = posix::load_checkpoint(path);
  ASSERT_TRUE(object_level.has_value());
  EXPECT_EQ(object_level->received_count, static_cast<std::int64_t>(total));
  posix::remove_checkpoint(path);
}

TEST(TransferCheckpoint, TornFileIsIgnoredAndReplacedByTheNextFold) {
  const std::string path = ::testing::TempDir() + "fobs_stripes_torn.ckpt";
  posix::remove_checkpoint(path);
  const TransferSpec spec{10 * 4096, 4096};  // 10 packets: ranges [0, 5) and [5, 10)

  EXPECT_FALSE(posix::TransferCheckpoint(path, spec.object_bytes, spec.packet_bytes)
                   .restored(0, 5)
                   .has_value())
      << "no file yet";
  {
    std::FILE* f = std::fopen(path.c_str(), "wb");
    ASSERT_NE(f, nullptr);
    const char garbage[] = "not a checkpoint, just some bytes of the right-ish length";
    std::fwrite(garbage, 1, sizeof garbage, f);
    std::fclose(f);
  }
  posix::TransferCheckpoint torn(path, spec.object_bytes, spec.packet_bytes);
  EXPECT_FALSE(torn.restored(0, 5).has_value());
  EXPECT_FALSE(torn.restored(5, 5).has_value());
  EXPECT_FALSE(torn.on_disk());

  util::Bitmap local(5);
  local.set(1);
  local.set(4);
  ASSERT_TRUE(torn.fold(5, local));
  EXPECT_TRUE(torn.on_disk());
  const posix::TransferCheckpoint reloaded(path, spec.object_bytes, spec.packet_bytes);
  const auto packed = reloaded.restored(5, 5);
  ASSERT_TRUE(packed.has_value());
  util::Bitmap restored(5);
  restored.merge_range(0, 5, packed->data(), packed->size());
  EXPECT_TRUE(restored == local);
  const auto other = reloaded.restored(0, 5);
  ASSERT_TRUE(other.has_value());
  util::Bitmap none(5);
  none.merge_range(0, 5, other->data(), other->size());
  EXPECT_TRUE(none.none_set()) << "nothing of the torn file leaks into another range";
  posix::remove_checkpoint(path);
}

// A flow restored complete can reach its final fold after every other
// flow has filled the bitmap (e.g. while it waits in its control
// connect). When folds removed the file once the bitmap was full, that
// late fold re-created it holding the late flow's range alone, and a
// completed transfer left a stale checkpoint behind.
TEST(TransferCheckpoint, LateFoldOfARestoredFlowLeavesNoFileOnceComplete) {
  const std::string path = ::testing::TempDir() + "fobs_stripes_late_fold.ckpt";
  posix::remove_checkpoint(path);
  const TransferSpec spec{1024 * 1024, 1024};  // 1024 packets, 256 per stripe
  StripePlan plan;
  ASSERT_TRUE(StripePlan::make(spec, 4, &plan));
  auto fold_full = [&](posix::TransferCheckpoint& checkpoint, int s) {
    util::Bitmap full(static_cast<std::size_t>(plan.stripe_packets(s)));
    full.set_all();
    return checkpoint.fold(static_cast<std::size_t>(plan.first_packet(s)), full);
  };

  // Attempt 1 delivered stripes 0, 2 and 3; stripe 1 died.
  {
    posix::TransferCheckpoint attempt1(path, spec.object_bytes, spec.packet_bytes);
    for (int s : {0, 2, 3}) ASSERT_TRUE(fold_full(attempt1, s));
  }

  // Attempt 2 restores those three stripes complete.
  posix::TransferCheckpoint attempt2(path, spec.object_bytes, spec.packet_bytes);
  for (int s : {0, 2, 3}) EXPECT_TRUE(restored_range(attempt2, plan, s).all_set()) << s;
  EXPECT_TRUE(restored_range(attempt2, plan, 1).none_set());

  // Stripes 2, 3 and 1 fold full, then the restored stripe 0 folds late.
  for (int s : {2, 3, 1, 0}) ASSERT_TRUE(fold_full(attempt2, s));
  const auto before = posix::load_checkpoint(path);
  ASSERT_TRUE(before.has_value());
  EXPECT_EQ(before->received_count, spec.packet_count());

  attempt2.complete();
  EXPECT_FALSE(file_exists(path)) << "a completed transfer leaves no checkpoint";
  EXPECT_FALSE(posix::load_checkpoint(path).has_value());
  EXPECT_FALSE(attempt2.on_disk());
}

// ---------------------------------------------------------------------------
// Loopback striped transfers (real sockets)
// ---------------------------------------------------------------------------

struct LoopbackRun {
  posix::TransferResult sender;
  posix::TransferResult receiver;
};

/// Runs one blocking send_object/receive_object pair over loopback, the
/// sender on its own thread.
LoopbackRun run_loopback(const posix::SenderOptions& send, const posix::ReceiverOptions& recv,
                         std::span<const std::uint8_t> object, std::span<std::uint8_t> buffer) {
  LoopbackRun run;
  std::thread sender([&] { run.sender = posix::send_object(send, object); });
  run.receiver = posix::receive_object(recv, buffer);
  sender.join();
  return run;
}

TEST(StripedTransfer, FourStripes64MiBLandByteIdentical) {
  constexpr std::int64_t kObjectBytes = 64 * 1024 * 1024;
  constexpr std::int64_t kPacketBytes = 8 * 1024;
  auto object = core::TransferObject::pattern(kObjectBytes, 0x57121FE5);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(kObjectBytes), 0);

  posix::SenderOptions send;
  send.data_port = 30312;
  send.control_port = 30320;
  send.endpoint.packet_bytes = kPacketBytes;
  send.stripes = 4;
  posix::ReceiverOptions recv;
  recv.data_port = 30312;
  recv.control_port = 30320;
  recv.endpoint.packet_bytes = kPacketBytes;
  recv.stripes = 4;

  const auto run = run_loopback(send, recv, object.view(), buffer);
  ASSERT_TRUE(run.receiver.completed()) << run.receiver.error;
  ASSERT_TRUE(run.sender.completed()) << run.sender.error;
  EXPECT_EQ(run.receiver.stripes, 4);
  EXPECT_EQ(run.receiver.stripes_completed, 4);
  EXPECT_EQ(run.sender.stripes, 4);
  // Byte-identical, checksum-verified.
  EXPECT_EQ(fnv1a(buffer.data(), buffer.size()),
            fnv1a(object.view().data(), object.view().size()));
  EXPECT_EQ(std::memcmp(buffer.data(), object.view().data(), buffer.size()), 0);
  EXPECT_GT(run.receiver.goodput_mbps, 0.0);
}

TEST(StripedTransfer, RejectsPortBlocksPastThePortSpace) {
  auto object = core::TransferObject::pattern(64 * 1024, 0xB10C);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(object.size()), 0);
  posix::TransferEngine engine(posix::EngineOptions{.workers = 1});
  posix::ReceiverOptions recv;
  recv.data_port = 65534;
  recv.control_port = 30330;
  recv.endpoint.packet_bytes = 4096;
  recv.stripes = 4;
  EXPECT_EQ(engine.submit_receive(recv, buffer).wait(), posix::TransferStatus::kBadOptions);
  EXPECT_EQ(engine.sessions_submitted(), 0u);

  posix::SenderOptions send;
  send.data_port = 30330;
  send.control_port = 65535;
  send.endpoint.packet_bytes = 4096;
  send.stripes = 2;
  EXPECT_EQ(engine.submit_send(send, object.view()).wait(), posix::TransferStatus::kBadOptions);
  // More stripes than the object has packets.
  send.control_port = 30331;
  send.stripes = 17;
  EXPECT_EQ(engine.submit_send(send, object.view()).wait(), posix::TransferStatus::kBadOptions);
  EXPECT_EQ(engine.sessions_submitted(), 0u);
}

TEST(StripedTransfer, KilledStripeDegradesThenResumesByteIdentical) {
  constexpr std::int64_t kObjectBytes = 8 * 1024 * 1024;
  constexpr std::int64_t kPacketBytes = 8 * 1024;
  auto object = core::TransferObject::pattern(kObjectBytes, 0xDEAD51);
  std::vector<std::uint8_t> buffer(static_cast<std::size_t>(kObjectBytes), 0);
  const std::string checkpoint_path = ::testing::TempDir() + "fobs_stripes_kill.ckpt";
  posix::remove_checkpoint(checkpoint_path);

  // Attempt 1: stripe 1's data flow drops every datagram
  // — that stripe can never progress, the other three complete.
  {
    posix::SenderOptions send;
    send.data_port = 30354;
    send.control_port = 30360;
    send.endpoint.packet_bytes = kPacketBytes;
    send.endpoint.timeout_ms = 4'000;  // give up on the dead stripe fast
    send.stripes = 4;
    posix::ReceiverOptions recv;
    recv.data_port = 30354;
    recv.control_port = 30360;
    recv.checkpoint_path = checkpoint_path;
    recv.endpoint.packet_bytes = kPacketBytes;
    recv.endpoint.timeout_ms = 4'000;
    recv.stripes = 4;
    recv.stripe_fault_plans = {"", "seed=7;data.drop=1", "", ""};

    const auto run = run_loopback(send, recv, object.view(), buffer);
    EXPECT_FALSE(run.receiver.completed());
    EXPECT_TRUE(run.receiver.degraded())
        << "expected some stripes delivered, got " << run.receiver.stripes_completed
        << " of " << run.receiver.stripes << ": " << run.receiver.error;
    EXPECT_EQ(run.receiver.stripes_completed, 3);
    EXPECT_TRUE(run.receiver.resumable);
    EXPECT_NE(run.receiver.flows[1].status, posix::TransferStatus::kCompleted);
    // The object-level checkpoint holds the three delivered stripes, so
    // a retry at any stripe count can resume this transfer.
    StripePlan plan;
    ASSERT_TRUE(StripePlan::make({kObjectBytes, kPacketBytes}, 4, &plan));
    const auto checkpoint = posix::load_checkpoint(checkpoint_path);
    ASSERT_TRUE(checkpoint.has_value());
    EXPECT_EQ(checkpoint->received_count,
              plan.stripe_packets(0) + plan.stripe_packets(2) + plan.stripe_packets(3));
  }

  // Attempt 2: same buffer, no faults — resumes from the checkpoint and
  // completes without refetching the three delivered stripes. Saving on
  // every ACK includes the one the completing packet triggers.
  {
    posix::SenderOptions send;
    send.data_port = 30354;
    send.control_port = 30360;
    send.endpoint.packet_bytes = kPacketBytes;
    send.stripes = 4;
    posix::ReceiverOptions recv;
    recv.data_port = 30354;
    recv.control_port = 30360;
    recv.checkpoint_path = checkpoint_path;
    recv.checkpoint_every_acks = 1;
    recv.endpoint.packet_bytes = kPacketBytes;
    recv.stripes = 4;

    const auto run = run_loopback(send, recv, object.view(), buffer);
    ASSERT_TRUE(run.receiver.completed()) << run.receiver.error;
    EXPECT_GT(run.receiver.packets_restored, 0)
        << "the resume must restore the completed stripes from checkpoints";
    EXPECT_EQ(std::memcmp(buffer.data(), object.view().data(), buffer.size()), 0);
    EXPECT_EQ(fnv1a(buffer.data(), buffer.size()),
              fnv1a(object.view().data(), object.view().size()));
  }
  EXPECT_FALSE(posix::load_checkpoint(checkpoint_path).has_value())
      << "a completed transfer leaves no checkpoint";
}

// ---------------------------------------------------------------------------
// Striped fetch through the file server
// ---------------------------------------------------------------------------

TEST(StripedTransfer, StripedFetchThroughFileServerIsByteIdentical) {
  const std::string dir = ::testing::TempDir() + "fobs_stripes_fetch";
  ::mkdir(dir.c_str(), 0755);
  auto original = core::TransferObject::pattern(6 * 1024 * 1024 + 13, 0xF57);
  const auto checksum = original.checksum();
  ASSERT_TRUE(original.write_to_file(dir + "/dataset.bin"));

  posix::FileServerOptions server_options;
  server_options.dir = dir;
  server_options.catalog_port = 30400;  // control ports 30401..30432
  server_options.max_stripes = 8;
  server_options.quiet = true;
  server_options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(server_options);
  ASSERT_TRUE(server.start());

  posix::FetchOptions fetch;
  fetch.catalog_port = server_options.catalog_port;
  fetch.name = "dataset.bin";
  fetch.out_path = dir + "/fetched.bin";
  fetch.data_port = 30440;
  fetch.stripes = 4;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 30'000;
  const auto result = posix::fetch_file(fetch);
  ASSERT_TRUE(result.completed()) << result.error;
  EXPECT_EQ(result.stripes, 4);
  EXPECT_FALSE(result.fallback_single_flow);
  EXPECT_EQ(result.checksum, checksum);
  // A completed fetch leaves neither the partial file nor a checkpoint.
  EXPECT_NE(::access((fetch.out_path + ".part").c_str(), F_OK), 0);
  EXPECT_NE(::access((fetch.out_path + ".ckpt").c_str(), F_OK), 0);

  // The same client against a server that refuses striping degrades to
  // one flow and still verifies.
  server.stop();
  server_options.max_stripes = 1;
  server_options.catalog_port = 30470;
  posix::FileServer plain_server(server_options);
  ASSERT_TRUE(plain_server.start());
  fetch.catalog_port = server_options.catalog_port;
  fetch.out_path = dir + "/fetched_plain.bin";
  fetch.data_port = 30480;
  const auto fallback = posix::fetch_file(fetch);
  ASSERT_TRUE(fallback.completed()) << fallback.error;
  EXPECT_TRUE(fallback.fallback_single_flow);
  EXPECT_EQ(fallback.stripes, 1);
  EXPECT_EQ(fallback.checksum, checksum);
  plain_server.stop();
}

// ---------------------------------------------------------------------------
// One checkpoint per fetch: resume at a different stripe count
// ---------------------------------------------------------------------------

constexpr std::int64_t kResumeObjectBytes = 4 * 1024 * 1024 + 123;
constexpr std::int64_t kResumePacketBytes = 8 * 1024;

/// An interrupted fetch: the receive side runs exactly as fetch_file
/// runs it — into a mapping of `<out>.part` with the object-level
/// checkpoint at `<out>.ckpt` — over `fault_plans.size()` stripes, one
/// fault plan per stripe, against a striped sender of `object`.
posix::TransferResult interrupted_fetch(const core::TransferObject& object,
                                       const std::string& out,
                                       const std::vector<std::string>& fault_plans,
                                       std::uint16_t data_port, std::uint16_t control_port) {
  const int stripes = static_cast<int>(fault_plans.size());
  auto partial = core::TransferObject::map_file_rw(out + ".part", object.size());
  EXPECT_TRUE(partial.has_value());
  if (!partial) return {};
  posix::SenderOptions send;
  send.data_port = data_port;
  send.control_port = control_port;
  send.endpoint.packet_bytes = kResumePacketBytes;
  send.endpoint.timeout_ms = 3'000;
  send.stripes = stripes;
  posix::ReceiverOptions recv;
  recv.data_port = data_port;
  recv.control_port = control_port;
  recv.checkpoint_path = out + ".ckpt";
  recv.checkpoint_every_acks = 1;
  recv.endpoint.packet_bytes = kResumePacketBytes;
  recv.endpoint.timeout_ms = 3'000;
  recv.stripes = stripes;
  recv.stripe_fault_plans = fault_plans;
  const auto run = run_loopback(send, recv, object.view(), partial->mutable_view());
  partial->sync();
  return run.receiver;
}

/// Retries the fetch of `dir`/dataset.bin into `out` through a file
/// server with `stripes` requested, and checks the resume: byte-
/// identical, restored from the checkpoint, nothing left behind.
void expect_resumed_fetch(const std::string& dir, const std::string& out, int stripes,
                          std::uint16_t catalog_port, std::uint16_t data_port,
                          std::uint64_t checksum) {
  posix::FileServerOptions server_options;
  server_options.dir = dir;
  server_options.catalog_port = catalog_port;
  server_options.control_port_count = 4;
  server_options.quiet = true;
  server_options.endpoint.packet_bytes = kResumePacketBytes;
  server_options.endpoint.timeout_ms = 30'000;
  posix::FileServer server(server_options);
  ASSERT_TRUE(server.start());
  posix::FetchOptions fetch;
  fetch.catalog_port = catalog_port;
  fetch.name = "dataset.bin";
  fetch.out_path = out;
  fetch.data_port = data_port;
  fetch.stripes = stripes;
  fetch.quiet = true;
  fetch.endpoint.timeout_ms = 30'000;
  const auto result = posix::fetch_file(fetch);
  ASSERT_TRUE(result.completed()) << result.error;
  EXPECT_EQ(result.stripes, stripes);
  EXPECT_GT(result.packets_restored, 0) << "the retry must resume from <out>.ckpt";
  EXPECT_EQ(result.checksum, checksum);
  const auto fetched = core::TransferObject::map_file(out);
  ASSERT_TRUE(fetched.has_value());
  EXPECT_EQ(fetched->checksum(), checksum);
  EXPECT_FALSE(file_exists(out + ".part"));
  EXPECT_FALSE(file_exists(out + ".ckpt"));
  server.stop();
}

TEST(StripedResume, FourStripeAttemptResumesAtOneStripe) {
  const std::string dir = ::testing::TempDir() + "fobs_stripes_resume_4to1";
  ::mkdir(dir.c_str(), 0755);
  const std::string out = dir + "/fetched.bin";
  std::remove(out.c_str());
  posix::remove_checkpoint(out + ".ckpt");
  auto object = core::TransferObject::pattern(kResumeObjectBytes, 0x4701);
  ASSERT_TRUE(object.write_to_file(dir + "/dataset.bin"));

  const auto attempt = interrupted_fetch(
      object, out, {"", "seed=7;data.drop=1", "", ""}, 30334, 30338);
  EXPECT_FALSE(attempt.completed());
  EXPECT_EQ(attempt.stripes_completed, 3);
  ASSERT_TRUE(file_exists(out + ".part"));
  ASSERT_TRUE(file_exists(out + ".ckpt"));
  for (int s = 0; s < 4; ++s) {
    EXPECT_FALSE(file_exists(posix::stripe_checkpoint_path(out + ".ckpt", s)))
        << "no per-stripe checkpoint files";
  }

  expect_resumed_fetch(dir, out, 1, 30342, 30347, object.checksum());
}

TEST(StripedResume, OneStripeAttemptResumesAtFourStripes) {
  const std::string dir = ::testing::TempDir() + "fobs_stripes_resume_1to4";
  ::mkdir(dir.c_str(), 0755);
  const std::string out = dir + "/fetched.bin";
  std::remove(out.c_str());
  posix::remove_checkpoint(out + ".ckpt");
  auto object = core::TransferObject::pattern(kResumeObjectBytes, 0x1704);
  ASSERT_TRUE(object.write_to_file(dir + "/dataset.bin"));

  // The receiver dies after 300 of the object's 513 packets.
  const auto attempt = interrupted_fetch(object, out, {"crash=300"}, 30380, 30381);
  EXPECT_EQ(attempt.status, posix::TransferStatus::kCrashed);
  ASSERT_TRUE(file_exists(out + ".part"));
  ASSERT_TRUE(file_exists(out + ".ckpt"));

  expect_resumed_fetch(dir, out, 4, 30382, 30387, object.checksum());
}

}  // namespace
}  // namespace fobs

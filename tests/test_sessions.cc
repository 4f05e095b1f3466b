// Property test of the sans-io flow sessions (fobs/posix/session.h).
//
// Each seeded case runs the real SenderSession/ReceiverSession pairs of
// one transfer over in-memory datagram wires and control streams on a
// virtual clock: no sockets, ports, threads or sleeps. The harness below
// plays the pumps of posix_transfer.cc step for step. A case draws:
//  * a stripe count of 1-4, with the flows built from a StripePlan the
//    way the engine builds them;
//  * data.* and ack.* drop, dup, corrupt and blackhole schedules for
//    both ends of every flow, and sometimes one dead data link;
//  * datagram reordering (each datagram has its own latency);
//  * up to two control-connection drops (both ends see EOF, and bytes
//    not yet read are lost), during the transfer or while a receiver
//    waits for the echo of its completion;
//  * up to two receiver crashes, each at a random packet count of one
//    flow. A crash kills every receiver flow at once, as a killed
//    process would: the stripe bytes already written stay (a file-backed
//    mapping keeps them), the flows restart with a new epoch from the
//    transfer's checkpoint file, and datagrams still in flight, ACKs
//    stamped with the dead epoch included, are delivered late.
//
// Properties:
//  * a sender flow completes only when its stripe is byte-identical;
//  * at every crash and at the end, each packet the checkpoint marks
//    holds the source's bytes;
//  * a case whose data links all pass some data completes, byte-identical
//    to the source; a case with a dead link ends non-completed.
#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <deque>
#include <functional>
#include <map>
#include <memory>
#include <numeric>
#include <optional>
#include <set>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/rng.h"
#include "fobs/object.h"
#include "fobs/posix/checkpoint.h"
#include "fobs/posix/session.h"
#include "fobs/stripe/plan.h"

namespace fobs {
namespace {

using posix::TransferStatus;
using posix::detail::ReceiverSession;
using posix::detail::SenderSession;
using posix::detail::SessionTime;
using Bytes = std::vector<std::uint8_t>;

constexpr int kCases = 1000;
constexpr std::uint64_t kFirstSeed = 0x5E55;
/// Stall budget of every flow, in virtual time (8 intervals of 50 ms).
constexpr int kTimeoutMs = 400;
constexpr auto kStep = std::chrono::milliseconds(1);
/// No case may run longer than this many steps of virtual time.
constexpr int kMaxSteps = 60'000;

/// One direction of a flow's datagram path. Each datagram arrives after
/// its own latency, so a later one can overtake an earlier one.
class Wire {
 public:
  void send(SessionTime arrival, Bytes bytes) { in_flight_.emplace(arrival, std::move(bytes)); }
  /// Takes up to `max` datagrams that have arrived by `now`, oldest
  /// arrival first.
  std::vector<Bytes> arrived(SessionTime now, std::size_t max = 32) {
    std::vector<Bytes> out;
    while (!in_flight_.empty() && out.size() < max && in_flight_.begin()->first <= now) {
      out.push_back(std::move(in_flight_.begin()->second));
      in_flight_.erase(in_flight_.begin());
    }
    return out;
  }

 private:
  std::multimap<SessionTime, Bytes> in_flight_;
};

/// A control connection: the receiver writes state frames, the sender
/// answers the completion frame with its one-byte echo.
struct Connection {
  Bytes unread;                  ///< toward the sender
  Bytes echo;                    ///< toward the receiver
  bool receiver_closed = false;  ///< the sender reads EOF once `unread` is empty
  bool sender_closed = false;    ///< the receiver reads EOF once `echo` is empty
};

/// One flow's network: its two datagram wires, the connections waiting
/// in the sender's listen backlog, and each end's current connection.
struct Link {
  Wire data;
  Wire acks;
  std::deque<std::shared_ptr<Connection>> backlog;
  std::shared_ptr<Connection> sender_side;
  std::shared_ptr<Connection> receiver_side;
};

net::ChannelFaults draw_faults(util::Rng& rng, double max_prob) {
  net::ChannelFaults faults;
  if (rng.bernoulli(0.5)) faults.drop = rng.uniform(0.0, max_prob);
  if (rng.bernoulli(0.4)) faults.duplicate = rng.uniform(0.0, max_prob);
  if (rng.bernoulli(0.4)) faults.corrupt = rng.uniform(0.0, max_prob);
  if (rng.bernoulli(0.3)) {
    faults.blackhole_start = rng.uniform_int(0, 40);
    faults.blackhole_count = rng.uniform_int(1, 40);
  }
  return faults;
}

Bytes datagram_bytes(const net::DatagramView& view) {
  Bytes out(view.header.begin(), view.header.end());
  out.insert(out.end(), view.payload.begin(), view.payload.end());
  return out;
}

class CaseRun {
 public:
  CaseRun(std::uint64_t seed, std::string checkpoint_path)
      : rng_(seed), checkpoint_path_(std::move(checkpoint_path)) {
    const std::int64_t packet_bytes = std::int64_t{16} << rng_.uniform_int(0, 4);
    const std::int64_t object_bytes = rng_.uniform_int(1, 96 * packet_bytes);
    source_ = core::make_pattern(object_bytes, seed);
    sink_.assign(source_.size(), 0);
    const core::TransferSpec spec{object_bytes, packet_bytes};
    const int stripes = static_cast<int>(
        std::min<std::int64_t>(rng_.uniform_int(1, 4), stripe::StripePlan::max_stripes(spec)));
    EXPECT_TRUE(stripe::StripePlan::make(spec, stripes, &plan_));

    send_options_.core.batch_size = static_cast<int>(rng_.uniform_int(1, 4));
    send_options_.endpoint.timeout_ms = kTimeoutMs;
    recv_options_.core.ack_frequency = rng_.uniform_int(2, 16);
    recv_options_.endpoint.timeout_ms = kTimeoutMs;
    recv_options_.checkpoint_every_acks = static_cast<int>(rng_.uniform_int(1, 4));
    const std::int64_t reorder_us[] = {0, 200, 3000, 20000};
    reorder_us_ = reorder_us[rng_.uniform_int(0, 3)];
    crashes_left_ = static_cast<int>(rng_.uniform_int(0, 2));
    drops_left_ = static_cast<int>(rng_.uniform_int(0, 2));
    next_drop_at_ = rng_.uniform_int(0, 2 * spec.packet_count());
    const int dead_flow = rng_.bernoulli(0.05) ? pick_flow() : -1;
    dead_link_ = dead_flow >= 0;

    for (int i = 0; i < plan_.stripe_count(); ++i) {
      posix::detail::SendFlow send;
      posix::detail::ReceiveFlow receive;
      send.spec = receive.spec = plan_.stripe_spec(i);
      send.first_packet = receive.first_packet = plan_.first_packet(i);
      const auto offset = static_cast<std::size_t>(plan_.spec().offset_of(send.first_packet));
      const auto size = static_cast<std::size_t>(send.spec.object_bytes);
      send.stripe = std::span<const std::uint8_t>(source_).subspan(offset, size);
      receive.stripe = std::span<std::uint8_t>(sink_).subspan(offset, size);
      net::FaultPlan faults;
      faults.seed = rng_.next();
      faults.data = draw_faults(rng_, 0.3);
      if (i == dead_flow) faults.data.drop = 1.0;
      send.fault_plan = faults;
      send_flows_.push_back(send);
      receive_flows_.push_back(receive);
    }
    links_.resize(send_flows_.size());
    sender_results_.resize(send_flows_.size());
    for (const auto& flow : send_flows_) {
      senders_.push_back(std::make_unique<SenderSession>(send_options_, flow, now_));
    }
    posix::remove_checkpoint(checkpoint_path_);
    start_receivers();
  }

  ~CaseRun() { posix::remove_checkpoint(checkpoint_path_); }

  void run() {
    for (int step = 0; step < kMaxSteps; ++step) {
      for (std::size_t f = 0; f < senders_.size(); ++f) {
        sender_step(f);
        receiver_step(f);
      }
      if (crashed_) {
        crashed_ = false;
        ++crashes_;
        check_checkpoint("at a receiver crash");
        for (auto& link : links_) close_receiver_side(link);
        start_receivers();
      }
      maybe_drop_control();
      if (finished()) {
        check_outcome();
        return;
      }
      now_ += kStep;
    }
    ADD_FAILURE() << "case did not end within " << kMaxSteps << " steps";
  }

  [[nodiscard]] bool completed() const {
    for (const auto& result : sender_results_) {
      if (!result || !result->completed()) return false;
    }
    return true;
  }
  [[nodiscard]] int crashes() const { return crashes_; }
  [[nodiscard]] std::int64_t restored() const { return restored_; }
  [[nodiscard]] std::int64_t stale_acks() const { return stale_acks_; }
  [[nodiscard]] int unechoed_attempts() const { return unechoed_attempts_; }

 private:
  int pick_flow() { return static_cast<int>(rng_.uniform_int(0, plan_.stripe_count() - 1)); }

  SessionTime arrival() {
    return now_ + std::chrono::microseconds(100 + rng_.uniform_int(0, reorder_us_));
  }

  /// One iteration of run_sender's loop for flow `f`.
  void sender_step(std::size_t f) {
    if (sender_results_[f]) return;
    SenderSession& session = *senders_[f];
    Link& link = links_[f];
    if (!session.tick(now_, false)) {
      if (!link.sender_side) {
        if (!link.backlog.empty()) {
          link.sender_side = link.backlog.front();
          link.backlog.pop_front();
          // A reconnect discards every ACK already queued on the socket.
          if (session.on_control_connected()) link.acks.arrived(now_, SIZE_MAX);
        }
      } else {
        Connection& connection = *link.sender_side;
        Bytes bytes;
        bytes.swap(connection.unread);
        const bool eof = bytes.empty() && connection.receiver_closed;
        if (eof || session.on_control_bytes(bytes)) {
          connection.sender_closed = true;
          link.sender_side.reset();
        }
      }
      if (!session.done()) {
        for (const auto& ack : link.acks.arrived(now_)) session.on_ack_datagram(ack);
        if (!session.idle()) {
          for (const auto& view : session.next_batch()) {
            link.data.send(arrival(), datagram_bytes(view));
          }
          session.on_batch_sent();
        }
      }
    }
    if (!session.done()) return;
    if (session.completed()) {
      if (link.sender_side) {
        const auto echo = session.completion_echo();
        link.sender_side->echo.insert(link.sender_side->echo.end(), echo.begin(), echo.end());
      }
      for (const auto& ack : link.acks.arrived(now_, SIZE_MAX)) session.on_ack_datagram(ack);
    }
    // The flow's sockets close with it.
    if (link.sender_side) link.sender_side->sender_closed = true;
    link.sender_side.reset();
    sender_results_[f] = session.finish(now_);
    stale_acks_ += sender_results_[f]->stale_acks_dropped;
    const auto& flow = send_flows_[f];
    if (sender_results_[f]->completed()) {
      EXPECT_TRUE(std::equal(flow.stripe.begin(), flow.stripe.end(),
                             receive_flows_[f].stripe.begin()))
          << "flow " << f << " completed without its bytes";
    }
  }

  /// One iteration of run_receiver's loop for flow `f`, or of its
  /// completion handshake once the flow is done.
  void receiver_step(std::size_t f) {
    if (!receivers_[f]) return;
    ReceiverSession& session = *receivers_[f];
    Link& link = links_[f];
    if (!session.done() && !session.tick(now_, false)) {
      const auto datagrams = link.data.arrived(now_);
      if (datagrams.empty() && link.receiver_side && link.receiver_side->sender_closed) {
        connect(f);
      }
      for (const auto& datagram : datagrams) {
        if (session.done()) break;
        ++delivered_;
        for (const auto& view : session.on_datagram(datagram)) {
          link.acks.send(arrival(), datagram_bytes(view));
        }
      }
    }
    if (!session.done()) return;
    const auto handshaking = [&] { return session.awaiting_echo() || echo_deadlines_[f]; };
    if (handshaking()) {
      completion_step(f);
      if (handshaking()) return;
    }
    const auto result = session.finish(now_);
    receivers_[f].reset();
    if (result.completed()) {
      const auto& stripe = send_flows_[f].stripe;
      EXPECT_EQ(result.checksum, util::crc32(stripe.data(), stripe.size()))
          << "flow " << f << ": the stripe CRC folded from the packet CRCs";
    }
    restored_ += result.packets_restored;
    if (result.status == TransferStatus::kCrashed) crashed_ = true;
  }

  /// One step of an attempt of the completion handshake: the first
  /// writes the completion frame (connecting first when the connection
  /// is down, retried until the deadline as the backoff would), every
  /// step reads the echo. EOF or the deadline ends the attempt.
  void completion_step(std::size_t f) {
    ReceiverSession& session = *receivers_[f];
    Link& link = links_[f];
    auto& deadline = echo_deadlines_[f];
    if (!deadline) {
      deadline = session.begin_completion_attempt(now_);
      if (link.receiver_side) append_state(f);
    }
    if (!link.receiver_side) {
      connect(f);
    } else {
      Bytes bytes;
      bytes.swap(link.receiver_side->echo);
      session.on_control_bytes(bytes);
      if (bytes.empty() && link.receiver_side->sender_closed) deadline = now_;  // EOF
    }
    if (session.echoed()) {
      deadline.reset();
    } else if (now_ >= *deadline) {
      ++unechoed_attempts_;
      close_receiver_side(link);
      deadline.reset();
    }
  }

  /// The receiver pump's (re)connect: the old connection closes, and a
  /// new one gets the state frame, unless the sender flow has ended and
  /// its listener with it.
  bool connect(std::size_t f) {
    Link& link = links_[f];
    close_receiver_side(link);
    if (sender_results_[f]) return false;
    link.receiver_side = std::make_shared<Connection>();
    link.backlog.push_back(link.receiver_side);
    receivers_[f]->on_control_connected(now_);
    append_state(f);
    return true;
  }

  void append_state(std::size_t f) {
    const auto frame = receivers_[f]->state_frame();
    auto& unread = links_[f].receiver_side->unread;
    unread.insert(unread.end(), frame.begin(), frame.end());
  }

  static void close_receiver_side(Link& link) {
    if (link.receiver_side) link.receiver_side->receiver_closed = true;
    link.receiver_side.reset();
  }

  /// A new receiver incarnation: every flow restarts from the checkpoint
  /// file with a fresh epoch, and one flow may carry the next crash.
  void start_receivers() {
    checkpoint_ = std::make_unique<posix::TransferCheckpoint>(
        checkpoint_path_, plan_.spec().object_bytes, plan_.spec().packet_bytes);
    write_behind_.reset();
    ++epoch_;
    const int crash_flow = crashes_left_ > 0 ? pick_flow() : -1;
    if (crash_flow >= 0) --crashes_left_;
    receivers_.clear();
    echo_deadlines_.assign(receive_flows_.size(), std::nullopt);
    for (std::size_t f = 0; f < receive_flows_.size(); ++f) {
      auto& flow = receive_flows_[f];
      net::FaultPlan faults;
      faults.seed = rng_.next();
      faults.data = draw_faults(rng_, 0.1);
      faults.ack = draw_faults(rng_, 0.3);
      if (static_cast<int>(f) == crash_flow) {
        faults.crash_at_packet = rng_.uniform_int(0, 2 * flow.spec.packet_count());
      }
      flow.fault_plan = faults;
      receivers_.push_back(std::make_unique<ReceiverSession>(
          recv_options_, flow, checkpoint_.get(), &write_behind_, epoch_, now_));
      if (!connect(f)) receivers_[f]->on_connect_failed(false);
    }
  }

  /// A middlebox resets one live control connection after a random
  /// number of delivered packets: both ends see EOF, and what neither
  /// has read yet (a state frame, a completion, its echo) is lost.
  void maybe_drop_control() {
    if (drops_left_ == 0 || delivered_ < next_drop_at_) return;
    const auto f = static_cast<std::size_t>(pick_flow());
    Link& link = links_[f];
    if (!link.sender_side || !receivers_[f]) return;
    if (receivers_[f]->done() && !receivers_[f]->awaiting_echo()) return;
    Connection& connection = *link.sender_side;
    connection.receiver_closed = connection.sender_closed = true;
    connection.unread.clear();
    connection.echo.clear();
    --drops_left_;
    next_drop_at_ = delivered_ + rng_.uniform_int(1, 64);
  }

  [[nodiscard]] bool finished() const {
    for (const auto& result : sender_results_) {
      if (!result) return false;
    }
    for (const auto& receiver : receivers_) {
      if (receiver) return false;
    }
    return true;
  }

  /// Every packet the checkpoint file marks holds the source's bytes.
  void check_checkpoint(const char* when) {
    const auto saved = posix::load_checkpoint(checkpoint_path_);
    if (!saved) return;
    const auto& spec = plan_.spec();
    ASSERT_EQ(saved->packet_count(), spec.packet_count());
    util::Bitmap marks(static_cast<std::size_t>(spec.packet_count()));
    marks.merge_range(0, marks.size(), saved->bitmap.data(), saved->bitmap.size());
    for (std::int64_t seq = 0; seq < spec.packet_count(); ++seq) {
      if (!marks.test(static_cast<std::size_t>(seq))) continue;
      const auto offset = spec.offset_of(seq);
      const auto end = offset + spec.payload_bytes(seq);
      ASSERT_TRUE(std::equal(source_.begin() + offset, source_.begin() + end,
                             sink_.begin() + offset))
          << "checkpoint marks packet " << seq << " without its bytes, " << when;
    }
  }

  void check_outcome() {
    check_checkpoint("at the end");
    if (dead_link_) {
      EXPECT_FALSE(completed()) << "a transfer with a dead data link completed";
      return;
    }
    ASSERT_TRUE(completed()) << "a transfer whose links all pass data did not complete";
    EXPECT_EQ(sink_, source_);
  }

  util::Rng rng_;
  const std::string checkpoint_path_;
  Bytes source_;
  Bytes sink_;
  stripe::StripePlan plan_;
  posix::SenderOptions send_options_;
  posix::ReceiverOptions recv_options_;
  std::int64_t reorder_us_ = 0;
  bool dead_link_ = false;
  std::vector<posix::detail::SendFlow> send_flows_;
  std::vector<posix::detail::ReceiveFlow> receive_flows_;
  std::vector<Link> links_;
  std::vector<std::unique_ptr<SenderSession>> senders_;
  std::vector<std::optional<posix::FlowResult>> sender_results_;
  std::unique_ptr<posix::TransferCheckpoint> checkpoint_;
  /// The incarnation's write-behind: every page it is handed must already
  /// hold the source's bytes.
  class FinalBytesSink final : public core::WriteBehindSink {
   public:
    FinalBytesSink(const Bytes& source, const Bytes& sink) : source_(source), sink_(sink) {}
    void reset() { pages_.clear(); }
    void written(std::span<const std::uint8_t> bytes) override {
      const auto offset = bytes.data() - sink_.data();
      ASSERT_TRUE(offset >= 0 && offset + static_cast<std::ptrdiff_t>(bytes.size()) <=
                                     static_cast<std::ptrdiff_t>(sink_.size()));
      EXPECT_TRUE(std::equal(bytes.begin(), bytes.end(), source_.begin() + offset))
          << "a page was handed over before all its bytes were placed";
      for (std::size_t page = 0; page < bytes.size(); page += core::kPageBytes) {
        EXPECT_TRUE(pages_.insert(bytes.data() + page).second) << "a page was handed twice";
      }
    }

   private:
    const Bytes& source_;
    const Bytes& sink_;
    std::set<const std::uint8_t*> pages_;
  };
  FinalBytesSink write_behind_{source_, sink_};
  std::vector<std::unique_ptr<ReceiverSession>> receivers_;
  /// Per flow: the deadline of the open completion-handshake attempt.
  std::vector<std::optional<SessionTime>> echo_deadlines_;
  std::uint32_t epoch_ = 0;
  SessionTime now_{};
  int crashes_left_ = 0;
  int crashes_ = 0;
  bool crashed_ = false;
  int drops_left_ = 0;
  std::int64_t delivered_ = 0;
  std::int64_t next_drop_at_ = 0;
  std::int64_t restored_ = 0;
  std::int64_t stale_acks_ = 0;
  int unechoed_attempts_ = 0;
};

// The packet CRC seals the header too: a datagram whose seq was damaged
// in flight (here to another valid seq) is a corrupt drop, not good
// bytes placed at the wrong offset.
TEST(SessionHeaderSeal, FlippedSeqBitIsDroppedAsCorruptAndLeavesTheStripeUntouched) {
  const core::TransferSpec spec{8 * 64, 64};
  const Bytes source = core::make_pattern(spec.object_bytes, 7);
  Bytes sink(source.size(), 0);
  posix::detail::SendFlow send;
  send.spec = spec;
  send.stripe = source;
  posix::detail::ReceiveFlow receive;
  receive.spec = spec;
  receive.stripe = sink;
  posix::SenderOptions send_options;
  send_options.core.batch_size = 1;
  const SessionTime start{};
  SenderSession sender(send_options, send, start);
  ReceiverSession receiver(posix::ReceiverOptions{}, receive, nullptr, nullptr, 1, start);

  const auto batch = sender.next_batch();
  ASSERT_EQ(batch.size(), 1u);
  Bytes datagram = datagram_bytes(batch[0]);
  const auto sent = posix::decode_data_header(datagram.data(), datagram.size());
  ASSERT_TRUE(sent.has_value());
  datagram[posix::kDataSealedHeaderBytes - 1] ^= 0x01;  // the seq's lowest bit
  const auto damaged = posix::decode_data_header(datagram.data(), datagram.size());
  ASSERT_TRUE(damaged.has_value());
  ASSERT_NE(damaged->seq, sent->seq);
  ASSERT_LT(damaged->seq, spec.packet_count());

  EXPECT_TRUE(receiver.on_datagram(datagram).empty());
  EXPECT_EQ(sink, Bytes(source.size(), 0));
  const auto result = receiver.finish(start);
  EXPECT_EQ(result.corrupt_dropped, 1);
  EXPECT_EQ(result.packets_received, 0);
}

Bytes sealed_datagram(const core::TransferSpec& spec, std::span<const std::uint8_t> stripe,
                      core::PacketSeq seq) {
  Bytes datagram(posix::kDataHeaderSize);
  const auto* payload = stripe.data() + spec.offset_of(seq);
  const auto len = static_cast<std::size_t>(spec.payload_bytes(seq));
  posix::encode_data_header({seq}, datagram.data());
  posix::seal_data_header(datagram.data(), payload, len);
  datagram.insert(datagram.end(), payload, payload + len);
  return datagram;
}

// Two receive flows of one object, with 1000-byte packets (never
// page-aligned) and the stripe boundary and the object's end inside a
// page. Every packet arrives in random order, 30% only on a second pass,
// and 10% twice. Each range a flow hands to the write-behind must be
// whole pages of its own stripe in which every byte is placed (so the
// range can reach past the contiguous frontier, but never a page the
// flow may still write); no page is handed twice; and once the flow
// completes, every whole page of its stripe has been handed, and its
// checksum is its stripe's CRC.
TEST(SessionWriteBehind, HandsEachPageOnceOnlyAfterAllItsBytesArePlaced) {
  const core::TransferSpec object{3 * static_cast<std::int64_t>(core::kWriteBehindWindowBytes) +
                                      12'345,
                                  1000};
  const Bytes source = core::make_pattern(object.object_bytes, 23);
  Bytes sink(source.size(), 0);
  stripe::StripePlan plan;
  ASSERT_TRUE(stripe::StripePlan::make(object, 2, &plan));
  const auto page_of = [](const std::uint8_t* p) {
    return reinterpret_cast<std::uintptr_t>(p) / core::kPageBytes;
  };
  std::set<std::uintptr_t> handed;  // pages, over both flows
  util::Rng rng(29);

  for (int i = 0; i < plan.stripe_count(); ++i) {
    SCOPED_TRACE("flow " + std::to_string(i));
    const core::TransferSpec spec = plan.stripe_spec(i);
    const auto offset = static_cast<std::size_t>(object.offset_of(plan.first_packet(i)));
    const auto size = static_cast<std::size_t>(spec.object_bytes);
    const auto from = std::span<const std::uint8_t>(source).subspan(offset, size);
    posix::detail::ReceiveFlow flow;
    flow.spec = spec;
    flow.stripe = std::span<std::uint8_t>(sink).subspan(offset, size);
    std::vector<bool> placed(static_cast<std::size_t>(spec.packet_count()));

    class Recorder final : public core::WriteBehindSink {
     public:
      std::function<void(std::span<const std::uint8_t>)> check;
      void written(std::span<const std::uint8_t> bytes) override { check(bytes); }
    } recorder;
    std::set<std::uintptr_t> flow_pages;
    recorder.check = [&](std::span<const std::uint8_t> bytes) {
      ASSERT_FALSE(bytes.empty());
      ASSERT_EQ(reinterpret_cast<std::uintptr_t>(bytes.data()) % core::kPageBytes, 0u);
      ASSERT_EQ(bytes.size() % core::kPageBytes, 0u);
      ASSERT_GE(bytes.data(), flow.stripe.data());
      ASSERT_LE(bytes.data() + bytes.size(), flow.stripe.data() + flow.stripe.size());
      const auto lo = bytes.data() - flow.stripe.data();
      const auto hi = lo + static_cast<std::ptrdiff_t>(bytes.size());
      for (auto seq = lo / spec.packet_bytes; seq <= (hi - 1) / spec.packet_bytes; ++seq) {
        ASSERT_TRUE(placed[static_cast<std::size_t>(seq)])
            << "packet " << seq << " is not placed yet";
      }
      for (const auto* page = bytes.data(); page < bytes.data() + bytes.size();
           page += core::kPageBytes) {
        EXPECT_TRUE(handed.insert(page_of(page)).second) << "a page was handed twice";
        flow_pages.insert(page_of(page));
      }
    };
    ReceiverSession receiver(posix::ReceiverOptions{}, flow, nullptr, &recorder, 1,
                             SessionTime{});

    // First pass in random order, with 30% lost; the second pass brings
    // the rest; one packet in ten arrives a second time along the way.
    std::vector<core::PacketSeq> order(static_cast<std::size_t>(spec.packet_count()));
    std::iota(order.begin(), order.end(), 0);
    for (std::size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[static_cast<std::size_t>(rng.next() % k)]);
    }
    std::vector<core::PacketSeq> lost;
    const auto deliver = [&](core::PacketSeq seq) {
      placed[static_cast<std::size_t>(seq)] = true;  // before the session can hand it over
      (void)receiver.on_datagram(sealed_datagram(spec, from, seq));
      if (rng.bernoulli(0.1)) (void)receiver.on_datagram(sealed_datagram(spec, from, seq));
    };
    for (const auto seq : order) {
      if (rng.bernoulli(0.3)) {
        lost.push_back(seq);
      } else {
        deliver(seq);
      }
    }
    for (const auto seq : lost) deliver(seq);
    ASSERT_TRUE(receiver.completed());
    const auto result = receiver.finish(SessionTime{});
    EXPECT_GT(result.duplicates, 0);
    EXPECT_EQ(result.checksum, util::crc32(from.data(), from.size()));
    EXPECT_TRUE(std::equal(from.begin(), from.end(), flow.stripe.begin()));

    const auto first_page = page_of(flow.stripe.data() + core::kPageBytes - 1);
    const auto end_page = page_of(flow.stripe.data() + flow.stripe.size());
    EXPECT_EQ(flow_pages.size(), end_page - first_page) << "some whole page was never handed";
    if (!flow_pages.empty()) {
      EXPECT_EQ(*flow_pages.begin(), first_page);
      EXPECT_EQ(*flow_pages.rbegin(), end_page - 1);
    }
  }
}

TEST(SessionProperty, SeededCrashResumeCasesEndByteIdenticalOrWithAnHonestCheckpoint) {
  const std::string path =
      ::testing::TempDir() + "fobs_sessions_" + std::to_string(::getpid()) + ".ckpt";
  int completed = 0;
  int crashes = 0;
  std::int64_t restored = 0;
  std::int64_t stale_acks = 0;
  int unechoed_attempts = 0;
  for (int i = 0; i < kCases && !::testing::Test::HasFailure(); ++i) {
    const std::uint64_t seed = kFirstSeed + static_cast<std::uint64_t>(i);
    SCOPED_TRACE("case seed " + std::to_string(seed));
    CaseRun run(seed, path);
    run.run();
    completed += run.completed() ? 1 : 0;
    crashes += run.crashes();
    restored += run.restored();
    stale_acks += run.stale_acks();
    unechoed_attempts += run.unechoed_attempts();
  }
  // The schedules reach the paths under test: crashes that restore
  // from a checkpoint, ACKs from a dead epoch that the sender drops, and
  // completion frames that got no echo and were sent again.
  EXPECT_GT(completed, kCases / 2);
  EXPECT_GT(crashes, kCases / 4);
  EXPECT_GT(restored, 0);
  EXPECT_GT(stale_acks, 0);
  EXPECT_GT(unechoed_attempts, 0);
}

}  // namespace
}  // namespace fobs

// Deterministic discrete-event simulation kernel.
//
// A single-threaded event loop with a simulated clock. Components
// schedule closures at absolute or relative times; the kernel executes
// them in (time, insertion-order) order, so runs are exactly
// reproducible. Cancellation is lazy: cancelled events stay in the heap
// but their bodies are dropped.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <queue>
#include <unordered_map>
#include <vector>

#include "common/units.h"

namespace fobs::sim {

using fobs::util::Duration;
using fobs::util::TimePoint;

/// Opaque handle for a scheduled event; usable with `cancel`.
using EventId = std::uint64_t;
inline constexpr EventId kInvalidEventId = 0;

class Simulation {
 public:
  Simulation() = default;
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;

  /// Current simulated time.
  [[nodiscard]] TimePoint now() const { return now_; }

  /// Schedules `fn` at absolute time `t` (must be >= now()).
  EventId schedule_at(TimePoint t, std::function<void()> fn);
  /// Schedules `fn` after `delay` (clamped to zero if negative).
  EventId schedule_in(Duration delay, std::function<void()> fn);
  /// Drops a pending event. Cancelling an already-fired or invalid id is
  /// a no-op. Returns true when an event was actually removed.
  bool cancel(EventId id);
  /// True while `id` is scheduled and has neither fired nor been
  /// cancelled.
  [[nodiscard]] bool pending(EventId id) const { return bodies_.count(id) != 0; }

  /// Executes the next event, if any. Returns false when the queue is
  /// empty (after skipping cancelled entries).
  bool step();
  /// When the event step() would execute next is due; nullopt when none
  /// is pending. Lets a driver stop before an event past its deadline.
  [[nodiscard]] std::optional<TimePoint> next_event_time();
  /// Runs until the queue is empty or `stop()` is called.
  void run();
  /// Runs events with time <= `t`; afterwards now() == t if the horizon
  /// was reached (or the stop/empty point otherwise).
  void run_until(TimePoint t);
  void run_for(Duration d) { run_until(now_ + d); }
  /// Makes `run`/`run_until` return after the current event completes.
  void stop() { stopped_ = true; }
  [[nodiscard]] bool stopped() const { return stopped_; }
  /// Re-arms a stopped simulation so it can be run again.
  void clear_stop() { stopped_ = false; }

  [[nodiscard]] std::size_t pending_events() const { return bodies_.size(); }
  [[nodiscard]] std::uint64_t events_executed() const { return executed_; }

 private:
  struct HeapEntry {
    TimePoint time;
    std::uint64_t seq;  // tie-break: earlier scheduling runs first
    EventId id;
    bool operator>(const HeapEntry& other) const {
      if (time != other.time) return time > other.time;
      return seq > other.seq;
    }
  };

  TimePoint now_;
  std::uint64_t next_seq_ = 1;
  EventId next_id_ = 1;
  bool stopped_ = false;
  std::uint64_t executed_ = 0;
  std::priority_queue<HeapEntry, std::vector<HeapEntry>, std::greater<>> heap_;
  std::unordered_map<EventId, std::function<void()>> bodies_;
};

}  // namespace fobs::sim

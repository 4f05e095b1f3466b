#include "sim/simulation.h"

#include <cassert>
#include <utility>

namespace fobs::sim {

EventId Simulation::schedule_at(TimePoint t, std::function<void()> fn) {
  assert(fn);
  if (t < now_) t = now_;  // never schedule into the past
  const EventId id = next_id_++;
  heap_.push(HeapEntry{t, next_seq_++, id});
  bodies_.emplace(id, std::move(fn));
  return id;
}

EventId Simulation::schedule_in(Duration delay, std::function<void()> fn) {
  if (delay < Duration::zero()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

bool Simulation::cancel(EventId id) { return bodies_.erase(id) > 0; }

bool Simulation::step() {
  while (!heap_.empty()) {
    const HeapEntry top = heap_.top();
    auto it = bodies_.find(top.id);
    if (it == bodies_.end()) {
      heap_.pop();  // cancelled
      continue;
    }
    heap_.pop();
    assert(top.time >= now_);
    now_ = top.time;
    std::function<void()> body = std::move(it->second);
    bodies_.erase(it);
    ++executed_;
    body();
    return true;
  }
  return false;
}

void Simulation::run() {
  while (!stopped_ && step()) {
  }
}

std::optional<TimePoint> Simulation::next_event_time() {
  while (!heap_.empty() && bodies_.count(heap_.top().id) == 0) heap_.pop();  // cancelled
  if (heap_.empty()) return std::nullopt;
  return heap_.top().time;
}

void Simulation::run_until(TimePoint t) {
  while (!stopped_) {
    const auto next = next_event_time();
    if (!next || *next > t) break;
    step();
  }
  if (!stopped_ && now_ < t) now_ = t;
}

}  // namespace fobs::sim

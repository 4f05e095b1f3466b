// Lightweight, thread-safe metrics registry.
//
// Two instrument kinds, both lock-free on the update path:
//   Counter    — monotonically increasing int64 (relaxed fetch_add)
//   Histogram  — fixed upper-bound buckets + sum + count, all atomics
//
// Registration (name -> instrument) takes a mutex; the returned
// references are stable for the registry's lifetime, so callers look an
// instrument up once and then update it wait-free.
#pragma once

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <ostream>
#include <string>
#include <vector>

#include "common/table.h"

namespace fobs::telemetry {

class Counter {
 public:
  void inc(std::int64_t delta = 1) noexcept {
    value_.fetch_add(delta, std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t value() const noexcept {
    return value_.load(std::memory_order_relaxed);
  }
  void reset() noexcept { value_.store(0, std::memory_order_relaxed); }

 private:
  std::atomic<std::int64_t> value_{0};
};

/// Fixed-bucket histogram: bucket i counts observations <= bounds[i];
/// one implicit overflow bucket counts the rest. Bounds are fixed at
/// construction so `observe` is a binary search plus two relaxed
/// atomic adds — no allocation, no locking.
class Histogram {
 public:
  explicit Histogram(std::vector<std::int64_t> upper_bounds);

  Histogram(const Histogram&) = delete;
  Histogram& operator=(const Histogram&) = delete;

  void observe(std::int64_t v) noexcept;

  [[nodiscard]] std::int64_t count() const noexcept {
    return count_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::int64_t sum() const noexcept {
    return sum_.load(std::memory_order_relaxed);
  }
  [[nodiscard]] const std::vector<std::int64_t>& bounds() const { return bounds_; }
  /// Count in bucket `i` (0..bounds().size(); the last is overflow).
  [[nodiscard]] std::int64_t bucket(std::size_t i) const noexcept {
    return buckets_[i].load(std::memory_order_relaxed);
  }
  [[nodiscard]] std::size_t bucket_count() const noexcept { return buckets_.size(); }
  [[nodiscard]] double mean() const noexcept;

  void reset() noexcept;

 private:
  std::vector<std::int64_t> bounds_;  ///< sorted ascending
  std::vector<std::atomic<std::int64_t>> buckets_;
  std::atomic<std::int64_t> count_{0};
  std::atomic<std::int64_t> sum_{0};
};

/// A consistent-enough view of one instrument for export; values are
/// read with relaxed loads while writers may still be running.
struct MetricSample {
  enum class Kind { kCounter, kHistogram };
  std::string name;
  Kind kind = Kind::kCounter;
  std::int64_t value = 0;  ///< counter value, histogram count
  std::int64_t sum = 0;    ///< histograms only
  std::vector<std::int64_t> bounds;
  std::vector<std::int64_t> buckets;
};

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  /// The process-wide registry the drivers and examples share.
  static MetricsRegistry& global();

  /// Finds or creates; the reference stays valid for the registry's
  /// lifetime. A name maps to exactly one kind — looking it up as a
  /// different kind aborts (programming error).
  Counter& counter(const std::string& name);
  /// `upper_bounds` is only used on first creation.
  Histogram& histogram(const std::string& name, std::vector<std::int64_t> upper_bounds);

  [[nodiscard]] std::vector<MetricSample> snapshot() const;
  [[nodiscard]] fobs::util::TextTable to_table() const;
  /// One JSON object per instrument, mirroring the trace JSONL style.
  void write_jsonl(std::ostream& os) const;

  [[nodiscard]] std::size_t size() const;
  /// Zeroes every instrument (names and bounds are kept).
  void reset();

 private:
  struct Entry {
    MetricSample::Kind kind = MetricSample::Kind::kCounter;
    std::unique_ptr<Counter> counter;
    std::unique_ptr<Histogram> histogram;
  };

  mutable std::mutex mu_;  ///< guards the map, not the instruments
  std::map<std::string, Entry> entries_;
};

}  // namespace fobs::telemetry

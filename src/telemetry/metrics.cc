#include "telemetry/metrics.h"

#include <algorithm>
#include <cstdlib>

namespace fobs::telemetry {

// ---------------------------------------------------------------------------
// Histogram
// ---------------------------------------------------------------------------

Histogram::Histogram(std::vector<std::int64_t> upper_bounds)
    : bounds_(std::move(upper_bounds)), buckets_(bounds_.size() + 1) {
  std::sort(bounds_.begin(), bounds_.end());
  bounds_.erase(std::unique(bounds_.begin(), bounds_.end()), bounds_.end());
  if (buckets_.size() != bounds_.size() + 1) {
    // Duplicates were removed; rebuild the bucket array to match.
    std::vector<std::atomic<std::int64_t>> rebuilt(bounds_.size() + 1);
    buckets_.swap(rebuilt);
  }
}

void Histogram::observe(std::int64_t v) noexcept {
  const auto it = std::lower_bound(bounds_.begin(), bounds_.end(), v);
  const auto index = static_cast<std::size_t>(it - bounds_.begin());
  buckets_[index].fetch_add(1, std::memory_order_relaxed);
  count_.fetch_add(1, std::memory_order_relaxed);
  sum_.fetch_add(v, std::memory_order_relaxed);
}

double Histogram::mean() const noexcept {
  const std::int64_t n = count();
  if (n == 0) return 0.0;
  return static_cast<double>(sum()) / static_cast<double>(n);
}

void Histogram::reset() noexcept {
  for (auto& bucket : buckets_) bucket.store(0, std::memory_order_relaxed);
  count_.store(0, std::memory_order_relaxed);
  sum_.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// MetricsRegistry
// ---------------------------------------------------------------------------

MetricsRegistry& MetricsRegistry::global() {
  static MetricsRegistry registry;
  return registry;
}

Counter& MetricsRegistry::counter(const std::string& name) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& entry = entries_[name];
  if (entry.counter == nullptr) {
    if (entry.histogram != nullptr) std::abort();
    entry.kind = MetricSample::Kind::kCounter;
    entry.counter = std::make_unique<Counter>();
  }
  return *entry.counter;
}

Histogram& MetricsRegistry::histogram(const std::string& name,
                                      std::vector<std::int64_t> upper_bounds) {
  const std::lock_guard<std::mutex> lock(mu_);
  auto& entry = entries_[name];
  if (entry.histogram == nullptr) {
    if (entry.counter != nullptr) std::abort();
    entry.kind = MetricSample::Kind::kHistogram;
    entry.histogram = std::make_unique<Histogram>(std::move(upper_bounds));
  }
  return *entry.histogram;
}

std::vector<MetricSample> MetricsRegistry::snapshot() const {
  const std::lock_guard<std::mutex> lock(mu_);
  std::vector<MetricSample> samples;
  samples.reserve(entries_.size());
  for (const auto& [name, entry] : entries_) {
    MetricSample sample;
    sample.name = name;
    sample.kind = entry.kind;
    switch (entry.kind) {
      case MetricSample::Kind::kCounter:
        sample.value = entry.counter->value();
        break;
      case MetricSample::Kind::kHistogram: {
        sample.value = entry.histogram->count();
        sample.sum = entry.histogram->sum();
        sample.bounds = entry.histogram->bounds();
        sample.buckets.resize(entry.histogram->bucket_count());
        for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
          sample.buckets[i] = entry.histogram->bucket(i);
        }
        break;
      }
    }
    samples.push_back(std::move(sample));
  }
  return samples;
}

namespace {
const char* kind_name(MetricSample::Kind kind) {
  switch (kind) {
    case MetricSample::Kind::kCounter:
      return "counter";
    case MetricSample::Kind::kHistogram:
      return "histogram";
  }
  return "unknown";
}
}  // namespace

fobs::util::TextTable MetricsRegistry::to_table() const {
  fobs::util::TextTable table({"metric", "kind", "value", "sum"});
  for (const auto& sample : snapshot()) {
    table.add_row({sample.name, kind_name(sample.kind), std::to_string(sample.value),
                   sample.kind == MetricSample::Kind::kHistogram ? std::to_string(sample.sum)
                                                                 : std::string("-")});
  }
  return table;
}

void MetricsRegistry::write_jsonl(std::ostream& os) const {
  for (const auto& sample : snapshot()) {
    os << "{\"metric\":\"" << sample.name << "\",\"kind\":\"" << kind_name(sample.kind)
       << "\",\"value\":" << sample.value;
    if (sample.kind == MetricSample::Kind::kHistogram) {
      os << ",\"sum\":" << sample.sum << ",\"bounds\":[";
      for (std::size_t i = 0; i < sample.bounds.size(); ++i) {
        if (i > 0) os << ',';
        os << sample.bounds[i];
      }
      os << "],\"buckets\":[";
      for (std::size_t i = 0; i < sample.buckets.size(); ++i) {
        if (i > 0) os << ',';
        os << sample.buckets[i];
      }
      os << ']';
    }
    os << "}\n";
  }
}

std::size_t MetricsRegistry::size() const {
  const std::lock_guard<std::mutex> lock(mu_);
  return entries_.size();
}

void MetricsRegistry::reset() {
  const std::lock_guard<std::mutex> lock(mu_);
  for (auto& [name, entry] : entries_) {
    (void)name;
    switch (entry.kind) {
      case MetricSample::Kind::kCounter:
        entry.counter->reset();
        break;
      case MetricSample::Kind::kHistogram:
        entry.histogram->reset();
        break;
    }
  }
}

}  // namespace fobs::telemetry

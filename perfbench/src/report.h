// Shared plumbing of the benchmark harness: run configuration, the
// report printed as one JSON line, order statistics, process counters,
// and the in-memory span log of the traced run.
#pragma once

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

[[nodiscard]] inline double seconds_since(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

/// Everything one invocation was asked to do.
struct RunConfig {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  /// Self-test mode: small inputs and a handful of operations.
  bool short_mode = false;
  /// Self-test mode: flip one byte of the first timed fetch's output
  /// after fetch_file returns; the output check must catch it.
  bool flip_byte = false;
  /// Private directory for inputs and outputs (the caller removes it).
  std::string scratch;
  /// Where the traced run writes its spans (JSONL).
  std::string spans_path;
  /// First of the loopback ports this workload may use (see run.py).
  std::uint16_t port_base = 0;
  /// Loops stop here even when their minimum sample count is not met.
  Clock::time_point hard_deadline;
};

/// Linear-interpolated quantile (q in [0, 1]); NaN when `values` is empty.
[[nodiscard]] double quantile(std::vector<double> values, double q);
[[nodiscard]] inline double median(std::vector<double> values) {
  return quantile(std::move(values), 0.5);
}

/// User + system CPU seconds this process has consumed so far.
[[nodiscard]] double process_cpu_seconds();
/// Peak resident set size of this process, MiB.
[[nodiscard]] double peak_rss_mib();

/// What one workload run reports.
class Report {
 public:
  /// Operations attempted (fetches or simulated runs, warm-ups included).
  std::int64_t attempted = 0;

  void metric(const std::string& name, double value, const char* unit);
  /// Counts one failed operation under `reason`.
  void fail(const std::string& reason) { ++failures_[reason]; }
  /// Context for the reader (environment stamp, seed, digests).
  void note(const std::string& key, const std::string& text);
  void note(const std::string& key, double value);

  [[nodiscard]] std::int64_t failed() const;
  /// {"attempted":..,"failed":..,"ops_failed":{..},"metrics":{..},"info":{..}}
  [[nodiscard]] std::string to_json() const;

 private:
  struct Metric {
    double value = 0.0;
    std::string unit;
  };
  std::map<std::string, std::int64_t> failures_;
  std::map<std::string, Metric> metrics_;
  std::map<std::string, std::string> info_;  ///< values already JSON-encoded
};

/// Spans of the traced run, one per call the benchmark makes into the
/// program. Kept in memory and written as JSONL when the run ends. Only
/// the harness's main thread records spans.
class SpanLog {
 public:
  explicit SpanLog(bool enabled) : enabled_(enabled), origin_(Clock::now()) {}

  /// Opens a span and returns its id; 0 (recording nothing) when the log
  /// is disabled. `op_id` ties a span to one fetch or one simulated
  /// run; -1 when not applicable.
  std::uint64_t open(const char* name, std::uint64_t parent, std::int64_t op_id = -1);
  void close(std::uint64_t id);
  [[nodiscard]] std::size_t size() const { return spans_.size(); }
  bool write_jsonl(const std::string& path) const;

 private:
  struct Span {
    std::uint64_t id = 0;
    std::uint64_t parent = 0;
    std::int64_t op_id = -1;
    const char* name = "";
    std::int64_t start_ns = 0;
    std::int64_t end_ns = -1;
  };
  [[nodiscard]] std::int64_t now_ns() const;

  bool enabled_;
  Clock::time_point origin_;
  std::vector<Span> spans_;
};

/// A span covering one scope.
class SpanScope {
 public:
  SpanScope(SpanLog& log, const char* name, std::uint64_t parent, std::int64_t op_id = -1)
      : log_(log), id_(log.open(name, parent, op_id)) {}
  ~SpanScope() { log_.close(id_); }
  SpanScope(const SpanScope&) = delete;
  SpanScope& operator=(const SpanScope&) = delete;

  [[nodiscard]] std::uint64_t id() const { return id_; }

 private:
  SpanLog& log_;
  std::uint64_t id_;
};

/// Keeps the optimizer from discarding a value a timed loop computed.
template <typename T>
inline void keep(const T& value) {
  __asm__ __volatile__("" : : "m"(value) : "memory");
}

}  // namespace perfbench

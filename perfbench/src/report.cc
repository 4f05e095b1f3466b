#include "report.h"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

namespace perfbench {

namespace {

std::string json_number(double value) {
  if (!std::isfinite(value)) return "null";
  char text[32];
  std::snprintf(text, sizeof text, "%.17g", value);
  return text;
}

std::string json_string(const std::string& text) {
  std::string out = "\"";
  for (const char c : text) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char escaped[8];
      std::snprintf(escaped, sizeof escaped, "\\u%04x", static_cast<unsigned>(c));
      out += escaped;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

double seconds_of(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) + static_cast<double>(tv.tv_usec) * 1e-6;
}

}  // namespace

double quantile(std::vector<double> values, double q) {
  if (values.empty()) return std::numeric_limits<double>::quiet_NaN();
  std::sort(values.begin(), values.end());
  const double position = std::clamp(q, 0.0, 1.0) * static_cast<double>(values.size() - 1);
  const auto lower = static_cast<std::size_t>(position);
  const std::size_t upper = std::min(lower + 1, values.size() - 1);
  return values[lower] + (values[upper] - values[lower]) * (position - static_cast<double>(lower));
}

double process_cpu_seconds() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return seconds_of(usage.ru_utime) + seconds_of(usage.ru_stime);
}

double peak_rss_mib() {
  rusage usage{};
  ::getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // Linux reports KiB
}

void Report::metric(const std::string& name, double value, const char* unit) {
  metrics_[name] = Metric{value, unit};
}

void Report::note(const std::string& key, const std::string& text) {
  info_[key] = json_string(text);
}

void Report::note(const std::string& key, double value) { info_[key] = json_number(value); }

std::int64_t Report::failed() const {
  std::int64_t total = 0;
  for (const auto& entry : failures_) total += entry.second;
  return total;
}

std::string Report::to_json() const {
  std::ostringstream out;
  out << "{\"attempted\":" << attempted << ",\"failed\":" << failed() << ",\"ops_failed\":{";
  const char* separator = "";
  for (const auto& [reason, count] : failures_) {
    out << separator << json_string(reason) << ':' << count;
    separator = ",";
  }
  out << "},\"metrics\":{";
  separator = "";
  for (const auto& [name, metric] : metrics_) {
    out << separator << json_string(name) << ":{\"value\":" << json_number(metric.value)
        << ",\"unit\":" << json_string(metric.unit) << '}';
    separator = ",";
  }
  out << "},\"info\":{";
  separator = "";
  for (const auto& [key, value] : info_) {
    out << separator << json_string(key) << ':' << value;
    separator = ",";
  }
  out << "}}";
  return out.str();
}

std::int64_t SpanLog::now_ns() const {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - origin_).count();
}

std::uint64_t SpanLog::open(const char* name, std::uint64_t parent, std::int64_t op_id) {
  if (!enabled_) return 0;
  Span span;
  span.id = spans_.size() + 1;
  span.parent = parent;
  span.op_id = op_id;
  span.name = name;
  span.start_ns = now_ns();
  spans_.push_back(span);
  return span.id;
}

void SpanLog::close(std::uint64_t id) {
  if (id == 0 || id > spans_.size()) return;
  spans_[id - 1].end_ns = now_ns();
}

bool SpanLog::write_jsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans_) {
    out << "{\"id\":" << span.id << ",\"parent\":" << span.parent << ",\"op_id\":" << span.op_id
        << ",\"name\":\"" << span.name << "\",\"start_ns\":" << span.start_ns
        << ",\"end_ns\":" << span.end_ns << "}\n";
  }
  return static_cast<bool>(out);
}

}  // namespace perfbench

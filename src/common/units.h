// Strong types for time, data size, and data rate.
//
// All simulation code uses these types instead of raw integers so that a
// bandwidth can never be added to a duration and unit conversions are
// explicit. Time is kept as signed 64-bit nanoseconds, sizes as signed
// 64-bit bytes, and rates as double bits-per-second (rates are the result
// of division and do not need exactness).
#pragma once

#include <cmath>
#include <compare>
#include <type_traits>
#include <cstdint>
#include <limits>
#include <ostream>
#include <string>

namespace fobs::util {

/// A span of simulated time. Nanosecond resolution, signed.
class Duration {
 public:
  constexpr Duration() = default;

  [[nodiscard]] static constexpr Duration nanoseconds(std::int64_t ns) { return Duration{ns}; }
  [[nodiscard]] static constexpr Duration microseconds(std::int64_t us) { return Duration{us * 1000}; }
  [[nodiscard]] static constexpr Duration milliseconds(std::int64_t ms) { return Duration{ms * 1'000'000}; }
  [[nodiscard]] static constexpr Duration seconds(std::int64_t s) { return Duration{s * 1'000'000'000}; }
  /// Builds a duration from a floating-point number of seconds, rounding
  /// to the nearest nanosecond.
  [[nodiscard]] static constexpr Duration from_seconds(double s) {
    return Duration{static_cast<std::int64_t>(s * 1e9 + (s >= 0 ? 0.5 : -0.5))};
  }
  [[nodiscard]] static constexpr Duration zero() { return Duration{0}; }
  [[nodiscard]] static constexpr Duration max() {
    return Duration{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr std::int64_t us() const { return ns_ / 1000; }
  [[nodiscard]] constexpr std::int64_t ms() const { return ns_ / 1'000'000; }
  [[nodiscard]] constexpr double seconds() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr auto operator<=>(const Duration&) const = default;

  constexpr Duration& operator+=(Duration other) { ns_ += other.ns_; return *this; }
  constexpr Duration& operator-=(Duration other) { ns_ -= other.ns_; return *this; }
  friend constexpr Duration operator+(Duration a, Duration b) { return Duration{a.ns_ + b.ns_}; }
  friend constexpr Duration operator-(Duration a, Duration b) { return Duration{a.ns_ - b.ns_}; }
  template <typename Int>
    requires std::is_integral_v<Int>
  friend constexpr Duration operator*(Duration a, Int k) {
    return Duration{a.ns_ * static_cast<std::int64_t>(k)};
  }
  template <typename Int>
    requires std::is_integral_v<Int>
  friend constexpr Duration operator*(Int k, Duration a) {
    return a * k;
  }
  friend constexpr Duration operator*(Duration a, double k) {
    return Duration{static_cast<std::int64_t>(static_cast<double>(a.ns_) * k)};
  }
  friend constexpr Duration operator*(double k, Duration a) { return a * k; }
  template <typename Int>
    requires std::is_integral_v<Int>
  friend constexpr Duration operator/(Duration a, Int k) {
    return Duration{a.ns_ / static_cast<std::int64_t>(k)};
  }
  /// Ratio of two durations as a double; denominator must be non-zero.
  friend constexpr double operator/(Duration a, Duration b) {
    return static_cast<double>(a.ns_) / static_cast<double>(b.ns_);
  }

 private:
  explicit constexpr Duration(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// An absolute point on the simulated clock (nanoseconds since start).
class TimePoint {
 public:
  constexpr TimePoint() = default;

  [[nodiscard]] static constexpr TimePoint from_ns(std::int64_t ns) { return TimePoint{ns}; }
  [[nodiscard]] static constexpr TimePoint zero() { return TimePoint{0}; }
  [[nodiscard]] static constexpr TimePoint max() {
    return TimePoint{std::numeric_limits<std::int64_t>::max()};
  }

  [[nodiscard]] constexpr std::int64_t ns() const { return ns_; }
  [[nodiscard]] constexpr std::int64_t us() const { return ns_ / 1000; }
  [[nodiscard]] constexpr std::int64_t ms() const { return ns_ / 1'000'000; }
  [[nodiscard]] constexpr double seconds() const { return static_cast<double>(ns_) * 1e-9; }

  constexpr auto operator<=>(const TimePoint&) const = default;

  friend constexpr TimePoint operator+(TimePoint t, Duration d) {
    return TimePoint{t.ns_ + d.ns()};
  }
  friend constexpr TimePoint operator+(Duration d, TimePoint t) { return t + d; }
  friend constexpr TimePoint operator-(TimePoint t, Duration d) {
    return TimePoint{t.ns_ - d.ns()};
  }
  friend constexpr Duration operator-(TimePoint a, TimePoint b) {
    return Duration::nanoseconds(a.ns_ - b.ns_);
  }

 private:
  explicit constexpr TimePoint(std::int64_t ns) : ns_(ns) {}
  std::int64_t ns_ = 0;
};

/// A quantity of data in bytes.
class DataSize {
 public:
  constexpr DataSize() = default;

  [[nodiscard]] static constexpr DataSize bytes(std::int64_t b) { return DataSize{b}; }
  [[nodiscard]] static constexpr DataSize kilobytes(std::int64_t kb) { return DataSize{kb * 1024}; }
  [[nodiscard]] static constexpr DataSize megabytes(std::int64_t mb) {
    return DataSize{mb * 1024 * 1024};
  }
  [[nodiscard]] static constexpr DataSize zero() { return DataSize{0}; }

  [[nodiscard]] constexpr std::int64_t bytes() const { return bytes_; }
  [[nodiscard]] constexpr std::int64_t bits() const { return bytes_ * 8; }
  [[nodiscard]] constexpr double kilobytes() const { return static_cast<double>(bytes_) / 1024.0; }
  [[nodiscard]] constexpr double megabytes() const {
    return static_cast<double>(bytes_) / (1024.0 * 1024.0);
  }

  constexpr auto operator<=>(const DataSize&) const = default;

  constexpr DataSize& operator+=(DataSize other) { bytes_ += other.bytes_; return *this; }
  constexpr DataSize& operator-=(DataSize other) { bytes_ -= other.bytes_; return *this; }
  friend constexpr DataSize operator+(DataSize a, DataSize b) { return DataSize{a.bytes_ + b.bytes_}; }
  friend constexpr DataSize operator-(DataSize a, DataSize b) { return DataSize{a.bytes_ - b.bytes_}; }
  friend constexpr DataSize operator*(DataSize a, std::int64_t k) { return DataSize{a.bytes_ * k}; }
  friend constexpr DataSize operator*(std::int64_t k, DataSize a) { return DataSize{a.bytes_ * k}; }
  friend constexpr double operator/(DataSize a, DataSize b) {
    return static_cast<double>(a.bytes_) / static_cast<double>(b.bytes_);
  }

 private:
  explicit constexpr DataSize(std::int64_t b) : bytes_(b) {}
  std::int64_t bytes_ = 0;
};

/// A data rate in bits per second.
///
/// Network link speeds use decimal prefixes (100 Mb/s == 1e8 bit/s), which
/// matches how the paper quotes its 100 Mb/s NICs and the 622 Mb/s OC-12.
class DataRate {
 public:
  constexpr DataRate() = default;

  [[nodiscard]] static constexpr DataRate bits_per_second(double bps) { return DataRate{bps}; }
  [[nodiscard]] static constexpr DataRate megabits_per_second(double mbps) {
    return DataRate{mbps * 1e6};
  }
  [[nodiscard]] static constexpr DataRate gigabits_per_second(double gbps) {
    return DataRate{gbps * 1e9};
  }
  [[nodiscard]] static constexpr DataRate zero() { return DataRate{0.0}; }

  [[nodiscard]] constexpr double bps() const { return bps_; }
  [[nodiscard]] constexpr double mbps() const { return bps_ / 1e6; }
  [[nodiscard]] constexpr double bytes_per_second() const { return bps_ / 8.0; }

  [[nodiscard]] constexpr bool is_zero() const { return bps_ == 0.0; }

  constexpr auto operator<=>(const DataRate&) const = default;

  friend constexpr DataRate operator*(DataRate r, double k) { return DataRate{r.bps_ * k}; }
  friend constexpr DataRate operator*(double k, DataRate r) { return DataRate{r.bps_ * k}; }
  friend constexpr DataRate operator/(DataRate r, double k) { return DataRate{r.bps_ / k}; }
  friend constexpr double operator/(DataRate a, DataRate b) { return a.bps_ / b.bps_; }
  friend constexpr DataRate operator+(DataRate a, DataRate b) { return DataRate{a.bps_ + b.bps_}; }
  friend constexpr DataRate operator-(DataRate a, DataRate b) { return DataRate{a.bps_ - b.bps_}; }

 private:
  explicit constexpr DataRate(double bps) : bps_(bps) {}
  double bps_ = 0.0;
};

/// Time taken to serialize `size` onto a link of rate `rate`.
/// A zero rate means "infinitely fast" and yields a zero duration.
[[nodiscard]] constexpr Duration transmission_time(DataSize size, DataRate rate) {
  if (rate.is_zero()) return Duration::zero();
  return Duration::from_seconds(static_cast<double>(size.bits()) / rate.bps());
}

/// Average rate achieved when `size` is moved in `elapsed` time.
[[nodiscard]] constexpr DataRate rate_of(DataSize size, Duration elapsed) {
  if (elapsed <= Duration::zero()) return DataRate::zero();
  return DataRate::bits_per_second(static_cast<double>(size.bits()) / elapsed.seconds());
}

/// Ideal bandwidth-delay product: how much data fits "in flight".
[[nodiscard]] constexpr DataSize bandwidth_delay_product(DataRate rate, Duration rtt) {
  return DataSize::bytes(static_cast<std::int64_t>(rate.bytes_per_second() * rtt.seconds()));
}

std::string to_string(Duration d);
std::string to_string(TimePoint t);
std::string to_string(DataSize s);
std::string to_string(DataRate r);

std::ostream& operator<<(std::ostream& os, Duration d);
std::ostream& operator<<(std::ostream& os, TimePoint t);
std::ostream& operator<<(std::ostream& os, DataSize s);
std::ostream& operator<<(std::ostream& os, DataRate r);

namespace literals {
constexpr Duration operator""_ns(unsigned long long v) {
  return Duration::nanoseconds(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_us(unsigned long long v) {
  return Duration::microseconds(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_ms(unsigned long long v) {
  return Duration::milliseconds(static_cast<std::int64_t>(v));
}
constexpr Duration operator""_s(unsigned long long v) {
  return Duration::seconds(static_cast<std::int64_t>(v));
}
constexpr DataSize operator""_B(unsigned long long v) {
  return DataSize::bytes(static_cast<std::int64_t>(v));
}
constexpr DataSize operator""_KiB(unsigned long long v) {
  return DataSize::kilobytes(static_cast<std::int64_t>(v));
}
constexpr DataSize operator""_MiB(unsigned long long v) {
  return DataSize::megabytes(static_cast<std::int64_t>(v));
}
constexpr DataRate operator""_Mbps(unsigned long long v) {
  return DataRate::megabits_per_second(static_cast<double>(v));
}
constexpr DataRate operator""_Mbps(long double v) {
  return DataRate::megabits_per_second(static_cast<double>(v));
}
constexpr DataRate operator""_Gbps(unsigned long long v) {
  return DataRate::gigabits_per_second(static_cast<double>(v));
}
}  // namespace literals

}  // namespace fobs::util

// Strict integer arguments for the example programs.
#pragma once

#include <cerrno>
#include <cstdint>
#include <cstdlib>

namespace fobs::examples {

/// A whole decimal integer in [min, max]; false for a missing,
/// non-numeric or out-of-range value.
inline bool read_int(const char* text, std::int64_t min, std::int64_t max, std::int64_t& out) {
  char* end = nullptr;  // stays equal to a missing (null) text
  errno = 0;
  const long long value = text == nullptr ? 0 : std::strtoll(text, &end, 10);
  if (end == text || *end != '\0' || errno == ERANGE || value < min || value > max) {
    return false;
  }
  out = value;
  return true;
}

}  // namespace fobs::examples

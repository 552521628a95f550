// Strict numeric parsing for tool command lines.
//
// atoi/atof silently turn "abc" into 0 and "3x" into 3, which let bad flag
// values slip through as nonsense defaults. These helpers accept a value only
// when the whole string parses and the result is in range; callers print a
// diagnostic naming the flag and exit 2 otherwise.

#ifndef NESTSIM_TOOLS_CLI_NUM_H_
#define NESTSIM_TOOLS_CLI_NUM_H_

#include <cerrno>
#include <climits>
#include <cmath>
#include <cstdint>
#include <cstdlib>

namespace nestsim {

// Whole-string base-10 integer in [min_value, max_value]. Rejects empty
// strings, trailing junk ("3x"), and out-of-range values.
inline bool ParseCliInt(const char* text, long min_value, long max_value, long* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const long value = std::strtol(text, &end, 10);
  if (errno == ERANGE || end == text || *end != '\0') {
    return false;
  }
  if (value < min_value || value > max_value) {
    return false;
  }
  *out = value;
  return true;
}

// Whole-string base-10 unsigned 64-bit integer. Rejects empty strings, signs
// (strtoull would wrap "-5" to 2^64-5), trailing junk, and overflow.
inline bool ParseCliU64(const char* text, uint64_t* out) {
  if (text == nullptr || *text < '0' || *text > '9') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const unsigned long long value = std::strtoull(text, &end, 10);
  if (errno == ERANGE || *end != '\0') {
    return false;
  }
  *out = static_cast<uint64_t>(value);
  return true;
}

// Whole-string integer > 0 that fits an int.
inline bool ParseCliPositiveInt(const char* text, int* out) {
  long value = 0;
  if (!ParseCliInt(text, 1, INT_MAX, &value)) {
    return false;
  }
  *out = static_cast<int>(value);
  return true;
}

// Whole-string finite double > 0. Rejects "0", negatives, "nan", "inf", and
// trailing junk.
inline bool ParseCliPositiveDouble(const char* text, double* out) {
  if (text == nullptr || *text == '\0') {
    return false;
  }
  errno = 0;
  char* end = nullptr;
  const double value = std::strtod(text, &end);
  if (errno == ERANGE || end == text || *end != '\0') {
    return false;
  }
  if (!std::isfinite(value) || value <= 0.0) {
    return false;
  }
  *out = value;
  return true;
}

}  // namespace nestsim

#endif  // NESTSIM_TOOLS_CLI_NUM_H_

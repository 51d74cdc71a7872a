#include "sim/time.h"

#include <cmath>
#include <cstdio>

namespace bnm::sim {

Duration Duration::from_millis_f(double ms) {
  return Duration{static_cast<std::int64_t>(std::llround(ms * 1e6))};
}

Duration Duration::from_seconds_f(double s) {
  return Duration{static_cast<std::int64_t>(std::llround(s * 1e9))};
}

Duration Duration::scaled(double f) const {
  return Duration{static_cast<std::int64_t>(
      std::llround(static_cast<double>(ns_) * f))};
}

std::string Duration::to_string() const {
  char buf[64];
  const std::int64_t a = ns_ < 0 ? -ns_ : ns_;
  if (a >= 1'000'000'000 && a % 1'000'000 == 0 && a % 1'000'000'000 == 0) {
    std::snprintf(buf, sizeof buf, "%llds", static_cast<long long>(ns_ / 1'000'000'000));
  } else if (a >= 1'000'000) {
    if (a % 1'000'000 == 0) {
      std::snprintf(buf, sizeof buf, "%lldms", static_cast<long long>(ns_ / 1'000'000));
    } else {
      std::snprintf(buf, sizeof buf, "%.3fms", ms_f());
    }
  } else if (a >= 1'000) {
    if (a % 1'000 == 0) {
      std::snprintf(buf, sizeof buf, "%lldus", static_cast<long long>(ns_ / 1'000));
    } else {
      std::snprintf(buf, sizeof buf, "%.3fus", us_f());
    }
  } else {
    std::snprintf(buf, sizeof buf, "%lldns", static_cast<long long>(ns_));
  }
  return buf;
}

std::string TimePoint::to_string() const {
  const std::string offset = Duration::nanos(ns_).to_string();
  std::string out;
  out.reserve(1 + offset.size());
  out += '+';
  out += offset;
  return out;
}

}  // namespace bnm::sim

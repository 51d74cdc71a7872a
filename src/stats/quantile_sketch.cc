#include "stats/quantile_sketch.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <limits>

namespace bnm::stats {

namespace {
double nan_value() { return std::numeric_limits<double>::quiet_NaN(); }
}  // namespace

QuantileSketch::QuantileSketch(Grid grid) : grid_{grid} {
  assert(grid_.lo > 0 && grid_.hi > grid_.lo && grid_.cells > 0);
  log_lo_ = std::log(grid_.lo);
  step_ = std::log(grid_.hi / grid_.lo) / grid_.cells;
  inv_step_ = 1.0 / step_;
  ratio_ = std::exp(step_);
  buckets_.assign(2 * static_cast<std::size_t>(grid_.cells) + 1, 0);
}

std::size_t QuantileSketch::cell_for(double value_ms) const {
  const std::size_t zero = static_cast<std::size_t>(grid_.cells);
  const double mag = std::fabs(value_ms);
  if (!(mag >= grid_.lo)) return zero;  // |v| < lo and NaN both land here
  auto k = static_cast<long>((std::log(mag) - log_lo_) * inv_step_);
  k = std::clamp(k, 0L, static_cast<long>(grid_.cells) - 1);
  return value_ms < 0 ? zero - 1 - static_cast<std::size_t>(k)
                      : zero + 1 + static_cast<std::size_t>(k);
}

void QuantileSketch::cell_edges(std::size_t cell, double* lower,
                                double* upper) const {
  const std::size_t zero = static_cast<std::size_t>(grid_.cells);
  if (cell == zero) {
    *lower = -grid_.lo;
    *upper = grid_.lo;
    return;
  }
  const std::size_t k = cell > zero ? cell - zero - 1 : zero - 1 - cell;
  const double near = grid_.lo * std::exp(step_ * static_cast<double>(k));
  const double far = near * ratio_;
  if (cell > zero) {
    *lower = near;
    *upper = far;
  } else {
    *lower = -far;
    *upper = -near;
  }
}

void QuantileSketch::insert(double value_ms) {
  if (std::isnan(value_ms)) return;  // no defined rank; drop, don't poison
  ++buckets_[cell_for(value_ms)];
  if (count_ == 0) {
    min_ = max_ = value_ms;
  } else {
    min_ = std::min(min_, value_ms);
    max_ = std::max(max_, value_ms);
  }
  ++count_;
  sum_ns_ += std::llround(value_ms * 1e6);
}

void QuantileSketch::merge(const QuantileSketch& other) {
  assert(grid_ == other.grid_);
  if (other.count_ == 0) return;
  if (count_ == 0) {
    min_ = other.min_;
    max_ = other.max_;
  } else {
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
  }
  count_ += other.count_;
  sum_ns_ += other.sum_ns_;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    buckets_[i] += other.buckets_[i];
  }
}

double QuantileSketch::min() const { return count_ ? min_ : nan_value(); }
double QuantileSketch::max() const { return count_ ? max_ : nan_value(); }

double QuantileSketch::mean() const {
  if (count_ == 0) return nan_value();
  return static_cast<double>(sum_ns_) / 1e6 / static_cast<double>(count_);
}

double QuantileSketch::quantile(double q) const {
  if (count_ == 0) return nan_value();
  if (q <= 0.0) return min_;
  if (q >= 1.0) return max_;
  // Type-7-style fractional rank over the grouped counts: find the cell
  // holding rank `pos`, interpolate linearly inside it, and clamp to the
  // exact extremes so the answer never leaves the observed range.
  const double pos = q * static_cast<double>(count_ - 1);
  std::uint64_t before = 0;
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    const std::uint64_t m = buckets_[i];
    if (m == 0) continue;
    if (pos < static_cast<double>(before + m)) {
      double lower = 0, upper = 0;
      cell_edges(i, &lower, &upper);
      const double f = (pos - static_cast<double>(before)) /
                       static_cast<double>(m);
      return std::clamp(lower + f * (upper - lower), min_, max_);
    }
    before += m;
  }
  return max_;  // pos == count_ - 1 exactly (fp edge)
}

std::size_t QuantileSketch::memory_bytes() const {
  return sizeof(*this) + buckets_.capacity() * sizeof(std::uint64_t);
}

obs::json::Value QuantileSketch::to_json() const {
  using obs::json::Value;
  Value v = Value::object();
  v.add("lo", Value::number(grid_.lo));
  v.add("hi", Value::number(grid_.hi));
  v.add("cells", Value::integer(grid_.cells));
  v.add("count", Value::integer(static_cast<std::int64_t>(count_)));
  v.add("min", Value::number(count_ ? min_ : 0.0));
  v.add("max", Value::number(count_ ? max_ : 0.0));
  v.add("sum_ns", Value::integer(sum_ns_));
  Value buckets = Value::array();
  for (std::size_t i = 0; i < buckets_.size(); ++i) {
    if (buckets_[i] == 0) continue;
    Value pair = Value::array();
    pair.push(Value::integer(static_cast<std::int64_t>(i)));
    pair.push(Value::integer(static_cast<std::int64_t>(buckets_[i])));
    buckets.push(std::move(pair));
  }
  v.add("buckets", std::move(buckets));
  return v;
}

bool QuantileSketch::from_json(const obs::json::Value& v, QuantileSketch* out) {
  using obs::json::Value;
  if (!v.is_object()) return false;
  const Value* lo = v.find("lo");
  const Value* hi = v.find("hi");
  const Value* cells = v.find("cells");
  const Value* count = v.find("count");
  const Value* min_v = v.find("min");
  const Value* max_v = v.find("max");
  const Value* sum = v.find("sum_ns");
  const Value* buckets = v.find("buckets");
  if (!lo || !lo->is_number() || !hi || !hi->is_number() || !cells ||
      !cells->is_int() || !count || !count->is_int() || !min_v ||
      !min_v->is_number() || !max_v || !max_v->is_number() || !sum ||
      !sum->is_int() || !buckets || !buckets->is_array()) {
    return false;
  }
  // Range-check cells before it narrows to int: 2^32 + 512 is not 512.
  if (cells->as_int() < 1 || cells->as_int() > (1 << 20) ||
      count->as_int() < 0) {
    return false;
  }
  Grid grid;
  grid.lo = lo->as_double();
  grid.hi = hi->as_double();
  grid.cells = static_cast<int>(cells->as_int());
  if (!(grid.lo > 0) || !(grid.hi > grid.lo)) return false;
  QuantileSketch sketch{grid};
  sketch.count_ = static_cast<std::uint64_t>(count->as_int());
  sketch.min_ = min_v->as_double();
  sketch.max_ = max_v->as_double();
  sketch.sum_ns_ = sum->as_int();
  std::uint64_t total = 0;
  for (const Value& pair : buckets->items()) {
    if (!pair.is_array() || pair.items().size() != 2 ||
        !pair.items()[0].is_int() || !pair.items()[1].is_int()) {
      return false;
    }
    const std::int64_t idx = pair.items()[0].as_int();
    const std::int64_t n = pair.items()[1].as_int();
    // Bucket counts may not add up past `count` (nor wrap around to it).
    if (idx < 0 || static_cast<std::size_t>(idx) >= sketch.buckets_.size() ||
        n < 1 || static_cast<std::uint64_t>(n) > sketch.count_ - total) {
      return false;
    }
    sketch.buckets_[static_cast<std::size_t>(idx)] =
        static_cast<std::uint64_t>(n);
    total += static_cast<std::uint64_t>(n);
  }
  // Only the canonical form (buckets sorted and distinct, an empty sketch's
  // extrema 0) decodes, so what is accepted re-renders to the same bytes.
  if (total != sketch.count_ || sketch.to_json().dump() != v.dump()) {
    return false;
  }
  *out = std::move(sketch);
  return true;
}

}  // namespace bnm::stats

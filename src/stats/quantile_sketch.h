// Mergeable streaming quantile sketch for campaign-scale aggregation.
//
// A fleet campaign (core/campaign.h) simulates 10^5..10^6 clients; storing
// every Δd sample to sort later would cost O(clients·samples) memory. The
// sketch replaces that with a fixed sign-symmetric logarithmic grid of
// integer bucket counts plus exact {count, min, max, integer sum} — a few
// KB of state per shard, independent of how many samples stream through.
//
// Design choice (DESIGN.md §3h): a *grid* sketch rather than t-digest/KLL.
// Randomized or compaction-based sketches are functions of insertion order,
// so merging N shard sketches cannot reproduce the 1-shard run bit for bit.
// Here every piece of state is an exact integer (bucket counts, fixed-point
// value sum) or an order-free double (min/max), so merge() is exact,
// commutative and associative — an N-shard campaign report is byte-identical
// to the 1-shard serial run's, which scripts/check.sh gates on every run.
//
// Error bound: quantile() returns a value within one grid cell of an exact
// sample quantile — relative value error <= cell_ratio() - 1 (default grid:
// 512 cells per sign over [1 µs, 100 s] in ms units, ~3.7% per cell) for
// magnitudes inside the grid span; magnitudes below `lo` collapse into the
// zero cell (absolute error <= lo) and values beyond `hi` clamp to the
// exact min/max. Rank error follows from value error: the returned value's
// empirical rank differs from q by at most the mass of one cell
// (tests/test_campaign_sketch.cpp property-checks both against
// stats::quantile_sorted on uniform/lognormal/adversarial streams).
#pragma once

#include <cstdint>
#include <tuple>
#include <vector>

#include "obs/json.h"

namespace bnm::stats {

class QuantileSketch {
 public:
  struct Grid {
    double lo = 1e-3;   ///< smallest resolved magnitude (ms): 1 µs
    double hi = 1e5;    ///< largest resolved magnitude (ms): 100 s
    int cells = 512;    ///< log-spaced cells per sign
    bool operator==(const Grid&) const = default;

    template <class S>  ///< field list (core/config_hash.h)
    static auto fields(S& s) { return std::tie(s.lo, s.hi, s.cells); }
  };

  QuantileSketch() : QuantileSketch(Grid{}) {}
  explicit QuantileSketch(Grid grid);

  void insert(double value_ms);

  /// Exact integer merge: bucket counts, count and fixed-point sum add;
  /// min/max take extrema. Commutative and associative, so any shard
  /// grouping and any merge order produce identical state. Grids must
  /// match (asserted; mismatch is a programming error).
  void merge(const QuantileSketch& other);

  /// Approximate type-7-style quantile (q in [0,1]); NaN when empty.
  /// Within one grid cell of the exact sample quantile (see header note).
  double quantile(double q) const;

  std::uint64_t count() const { return count_; }
  double min() const;   ///< exact; NaN when empty
  double max() const;   ///< exact; NaN when empty
  double mean() const;  ///< from the fixed-point sum; NaN when empty
  /// Exact sum of inserted values in integer nanoseconds (value_ms * 1e6,
  /// rounded half away from zero) — the mergeable form of the mean.
  std::int64_t sum_ns() const { return sum_ns_; }

  const Grid& grid() const { return grid_; }
  /// Geometric width of one cell (upper/lower edge ratio).
  double cell_ratio() const { return ratio_; }
  /// Bytes held by this sketch (the O(shards) memory accounting used by
  /// bench/campaign_scale).
  std::size_t memory_bytes() const;

  /// Deterministic JSON state: grid, exact fields, and the non-zero bucket
  /// cells as sorted [index, count] pairs (sparse — campaign checkpoints
  /// stay small). from_json round-trips bit-exactly.
  obs::json::Value to_json() const;
  static bool from_json(const obs::json::Value& v, QuantileSketch* out);

  bool operator==(const QuantileSketch&) const = default;

 private:
  /// Cell index for a value: [0, cells) negative magnitudes descending,
  /// cells = the |v| < lo zero cell, (cells, 2*cells] positive magnitudes.
  std::size_t cell_for(double value_ms) const;
  /// [lower, upper] value edges of one cell.
  void cell_edges(std::size_t cell, double* lower, double* upper) const;

  Grid grid_;
  double log_lo_ = 0;    ///< ln(grid_.lo)
  double inv_step_ = 0;  ///< cells / ln(hi/lo)
  double step_ = 0;      ///< ln(hi/lo) / cells
  double ratio_ = 1;     ///< e^step
  std::uint64_t count_ = 0;
  std::int64_t sum_ns_ = 0;
  double min_ = 0, max_ = 0;  ///< valid iff count_ > 0
  std::vector<std::uint64_t> buckets_;  ///< 2*cells + 1
};

}  // namespace bnm::stats

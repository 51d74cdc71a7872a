// Process-wide metrics registry: the one place the testbed's counters live.
//
// Before this layer existed, every subsystem kept its own tallies —
// PayloadStats atomics, per-injector FaultCounters, ArenaStats, HTTP client
// members, SampleAccounting — with no common export path. The registry gives
// them a shared, typed substrate with one contract:
//
//   * Typed instruments. Counter (monotonic sum), Gauge (high-water mark,
//     merged by max) and Histogram (fixed integer bucket bounds chosen at
//     registration). All values are unsigned 64-bit integers, so every
//     aggregation is exact and order-independent — which is what makes a
//     snapshot from a parallel core::run_matrix run byte-identical to the
//     serial run's snapshot (bench/obs_overhead proves it on every
//     scripts/check.sh run).
//   * Single-writer thread-local shards. Only the owning thread writes a
//     shard's cells, so a write is a plain store: a relaxed load plus a
//     relaxed store on the thread's own cell (no lock-prefixed RMW), reached
//     through an inline thread_local pointer. Pool workers never contend.
//     Cells stay std::atomic so the cold readers (snapshot, total, reset)
//     never tear a value. Shards fold into a retired accumulator when their
//     thread exits; snapshot() merges live shards + retired under a mutex
//     (cold path only).
//   * Always on. Instruments here replaced counters that were always on
//     (PayloadStats, FaultCounters, ...) and whose accessors are part of
//     the public API — so recording is unconditional and cheap by design.
//     The obs kill switch (obs::prof, sim::Trace) gates the *optional*
//     layers, not these.
//
// Registration is idempotent by name (same name + kind returns the same
// instrument) and cold; do it once in a function-local static:
//
//   const obs::Counter& deep_bytes() {
//     static const obs::Counter c = obs::MetricsRegistry::instance().counter(
//         "payload.deep_copy_bytes", "bytes", "bytes memcpy'd into buffers");
//     return c;
//   }
//
// The full catalog of registered metrics is documented in
// docs/OBSERVABILITY.md; add a row there when you add an instrument here.
#pragma once

#include <atomic>
#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace bnm::obs {

class MetricsRegistry;

enum class MetricKind : std::uint8_t { kCounter, kGauge, kHistogram };

const char* to_string(MetricKind kind);

namespace detail {
using Cell = std::atomic<std::uint64_t>;

/// The calling thread's shard cells; nullptr until its first write.
inline thread_local Cell* t_cells = nullptr;
/// Create and register the calling thread's shard; sets t_cells.
Cell* attach_shard();

/// The calling thread's shard cells (registered on first use). The owning
/// thread is the only writer; snapshot/total/reset are the only readers.
inline Cell* cells() {
  Cell* c = t_cells;
  return __builtin_expect(c != nullptr, 1) ? c : attach_shard();
}

/// Single-writer increment: a relaxed load and a relaxed store, no RMW.
inline void bump(Cell& cell, std::uint64_t v) {
  cell.store(cell.load(std::memory_order_relaxed) + v,
             std::memory_order_relaxed);
}
}  // namespace detail

/// Monotonic sum. add() is the hot path: a plain store to the calling
/// thread's own cell.
class Counter {
 public:
  void add(std::uint64_t v = 1) const {
    detail::bump(detail::cells()[cell_], v);
  }
  /// Merged total across all threads (cold: takes the registry mutex).
  std::uint64_t total() const;
  /// Zero the metric everywhere. Call only at quiescent points (between
  /// runs / bench passes), like the legacy *Stats::reset() it replaces.
  void reset() const;

 private:
  friend class MetricsRegistry;
  explicit Counter(std::uint32_t cell) : cell_{cell} {}
  std::uint32_t cell_;
};

/// High-water-mark gauge: record_max() keeps the per-thread maximum and the
/// merged value is the max across threads — exact and order-independent
/// (peak arena bytes is the canonical user).
class Gauge {
 public:
  void record_max(std::uint64_t v) const {
    detail::Cell& cell = detail::cells()[cell_];
    if (v > cell.load(std::memory_order_relaxed)) {
      cell.store(v, std::memory_order_relaxed);
    }
  }
  std::uint64_t max_value() const;
  void reset() const;

 private:
  friend class MetricsRegistry;
  explicit Gauge(std::uint32_t cell) : cell_{cell} {}
  std::uint32_t cell_;
};

/// Fixed-bucket histogram over unsigned integer samples (callers pick the
/// unit — microseconds, bytes — at registration). A sample lands in the
/// first bucket whose bound is >= value; larger samples land in the
/// overflow bucket. Bucket counts and the exact integer sum are u64, so
/// merges are deterministic.
class Histogram {
 public:
  void observe(std::uint64_t v) const {
    detail::Cell* cells = detail::cells();
    std::size_t i = 0;
    while (i < n_bounds_ && v > bounds_[i]) ++i;  // n_bounds_ is small
    detail::bump(cells[cell_ + i], 1);
    detail::bump(cells[cell_ + n_bounds_ + 1], v);
  }
  std::uint64_t count() const;
  std::uint64_t sum() const;
  void reset() const;

 private:
  friend class MetricsRegistry;
  Histogram(std::uint32_t cell, const std::uint64_t* bounds,
            std::size_t n_bounds)
      : cell_{cell}, bounds_{bounds}, n_bounds_{n_bounds} {}
  std::uint32_t cell_;            ///< first bucket cell
  const std::uint64_t* bounds_;  ///< registry-owned, stable
  std::size_t n_bounds_;
};

/// One metric's merged value, as captured by MetricsRegistry::snapshot().
struct MetricValue {
  std::string name;
  std::string unit;
  std::string help;
  MetricKind kind = MetricKind::kCounter;
  std::uint64_t value = 0;  ///< counter total / gauge max / histogram count
  // Histograms only:
  std::vector<std::uint64_t> bounds;   ///< upper bounds (exclusive overflow)
  std::vector<std::uint64_t> buckets;  ///< bounds.size() + 1 (last = overflow)
  std::uint64_t sum = 0;               ///< exact sum of observed samples
};

/// A point-in-time merge of every registered metric, sorted by name (so two
/// snapshots of identical state serialize byte-identically regardless of
/// registration or thread order).
struct MetricsSnapshot {
  std::vector<MetricValue> metrics;

  const MetricValue* find(std::string_view name) const;
  /// Deterministic JSON (sorted keys, integer values only). The format is
  /// documented in docs/OBSERVABILITY.md.
  std::string to_json() const;
  /// Human-readable aligned table (examples / debugging).
  std::string to_text() const;
};

class MetricsRegistry {
 public:
  /// The process-wide registry. Intentionally leaked so that thread-exit
  /// shard retirement can never outlive it.
  static MetricsRegistry& instance();

  /// Register (or look up) an instrument. Name collisions with a different
  /// kind abort — metric names are a global namespace.
  Counter counter(std::string_view name, std::string_view unit,
                  std::string_view help);
  Gauge gauge(std::string_view name, std::string_view unit,
              std::string_view help);
  Histogram histogram(std::string_view name, std::string_view unit,
                      std::string_view help,
                      std::vector<std::uint64_t> bucket_bounds);

  /// Merge every live shard plus retired totals into one snapshot.
  MetricsSnapshot snapshot() const;

  /// Zero every cell of every metric (live shards + retired). Quiescent
  /// points only — an increment racing the reset may be lost (or may
  /// survive it), but a cell is never torn.
  void reset();

  std::size_t metric_count() const;

  /// Internal (shard registration / merge helpers). Not part of the API.
  struct Impl;
  Impl& impl() const;

 private:
  MetricsRegistry() = default;
};

}  // namespace bnm::obs

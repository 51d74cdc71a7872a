// Bench-side measurement ledger for bench/e2e.
//
// Everything here measures the library from the outside: spans are taken
// around calls into its public API, counters are deltas of
// obs::MetricsRegistry snapshots, and the in-program obs::prof scopes are
// read back as they are (inclusive totals). The library carries no
// bench-specific instrumentation.
//
// A span is {name, parent, thread, start, end}. A span's self time is its
// duration minus the length of the union of its children's intervals
// (children may run on other threads; the union is taken on the time axis).
#pragma once

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

#include "obs/metrics.h"

namespace e2e {

using Clock = std::chrono::steady_clock;

/// Nanoseconds since the bench's epoch (fixed on first use).
std::int64_t to_ns(Clock::time_point t);
inline std::int64_t now_ns() { return to_ns(Clock::now()); }

/// Dense id of the calling thread, in order of first use (main thread = 0).
int thread_index();

struct Span {
  const char* name = "";  ///< string literal
  std::size_t parent = 0;
  int thread = 0;
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Thread-safe in-memory span store; written out once, at exit.
class SpanLog {
 public:
  static constexpr std::size_t kRoot = static_cast<std::size_t>(-1);

  /// Record a finished span; returns its id (for use as a parent).
  std::size_t add(const char* name, std::size_t parent, std::int64_t t0,
                  std::int64_t t1, int thread);
  /// Open a span on the calling thread now; close() stamps its end.
  std::size_t open(const char* name, std::size_t parent = kRoot);
  void close(std::size_t id);

  std::vector<Span> spans() const;
  /// Chrome trace_event JSON (opens in Perfetto / chrome://tracing).
  bool write_chrome_trace(const std::string& path) const;

 private:
  mutable std::mutex mu_;
  std::vector<Span> spans_;
};

/// Read-only analysis over a finished span set.
class SpanTree {
 public:
  explicit SpanTree(std::vector<Span> spans);

  /// Sum over spans named `name` of their duration / self time (ns).
  std::int64_t total_ns(std::string_view name) const;
  std::int64_t self_ns(std::string_view name) const;
  /// Share of root-span wall time covered by the union of leaf spans below
  /// each root: how much of the traced wall time named layers explain.
  double coverage() const;

 private:
  std::int64_t self_of(std::size_t i) const;
  std::vector<Span> spans_;
  std::vector<std::vector<std::size_t>> children_;
};

/// Nearest-rank quantile (q in [0, 1]); 0 for an empty sample.
double quantile(std::vector<double> v, double q);
double median(std::vector<double> v);

/// 64-bit FNV-1a over every report a workload produces.
class Fnv1a {
 public:
  void update(std::string_view bytes);
  std::string hex() const;

 private:
  std::uint64_t h_ = 0xcbf29ce484222325ull;
};
std::string fnv1a_hex(std::string_view bytes);

/// Registry deltas over a region: construct at its start, call delta() at
/// its end.
class CounterDelta {
 public:
  CounterDelta();
  /// Increase of every counter total / histogram count since construction,
  /// by metric name. Metrics never registered are absent (read 0).
  std::map<std::string, double> delta() const;

 private:
  bnm::obs::MetricsSnapshot start_;
};

/// obs::prof totals (inclusive ns, all threads) by site name.
std::map<std::string, double> prof_totals_ns();

/// Peak resident set size of this process, MiB.
double peak_rss_mb();

/// a / b, or 0 when b is 0 (a layer the workload does not exercise).
inline double ratio(double a, double b) { return b != 0 ? a / b : 0.0; }

}  // namespace e2e

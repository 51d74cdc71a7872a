#include "obs/metrics.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <deque>
#include <mutex>
#include <unordered_map>

namespace bnm::obs {
namespace {

/// Cells per thread shard. Every registered instrument claims a fixed range
/// of cells (counter: 1, gauge: 1, histogram: bounds+2); the layout is
/// identical in every shard, so merging is a cell-wise fold. 4096 cells is
/// ~32 KiB per thread — far more than the catalog needs, cheap enough to
/// never grow (growing would invalidate hot-path pointers).
constexpr std::size_t kShardCells = 4096;

/// How a cell folds across shards.
enum class MergeKind : std::uint8_t { kSum, kMax };

struct Shard {
  std::atomic<std::uint64_t> cells[kShardCells] = {};
};

struct MetricDef {
  std::string name;
  std::string unit;
  std::string help;
  MetricKind kind;
  std::uint32_t cell;               ///< first cell in every shard
  std::uint32_t n_cells;            ///< cells claimed
  std::vector<std::uint64_t> bounds;  ///< histogram bucket upper bounds
};

[[noreturn]] void die(const char* what, const std::string& name) {
  std::fprintf(stderr, "obs::MetricsRegistry: %s (metric '%s')\n", what,
               name.c_str());
  std::abort();
}

}  // namespace

const char* to_string(MetricKind kind) {
  switch (kind) {
    case MetricKind::kCounter: return "counter";
    case MetricKind::kGauge: return "gauge";
    case MetricKind::kHistogram: return "histogram";
  }
  return "?";
}

struct MetricsRegistry::Impl {
  mutable std::mutex mu;
  // deque: handles keep pointers into defs (histogram bounds), so elements
  // must never move.
  std::deque<MetricDef> defs;
  std::unordered_map<std::string, std::uint32_t> by_name;  // -> defs index
  std::uint32_t next_cell = 0;
  std::vector<Shard*> live;          // registered, not yet retired
  std::uint64_t retired[kShardCells] = {};  // folded exited-thread shards
  MergeKind merge[kShardCells] = {};        // cell -> fold rule

  void fold_into_retired(Shard* s) {
    for (std::size_t i = 0; i < kShardCells; ++i) {
      std::uint64_t v = s->cells[i].load(std::memory_order_relaxed);
      if (merge[i] == MergeKind::kMax) {
        retired[i] = std::max(retired[i], v);
      } else {
        retired[i] += v;
      }
    }
  }

  /// Cell-wise fold of retired + all live shards. Caller holds mu.
  void merged(std::uint64_t out[kShardCells]) const {
    std::copy(retired, retired + kShardCells, out);
    for (const Shard* s : live) {
      for (std::size_t i = 0; i < kShardCells; ++i) {
        std::uint64_t v = s->cells[i].load(std::memory_order_relaxed);
        if (merge[i] == MergeKind::kMax) {
          out[i] = std::max(out[i], v);
        } else {
          out[i] += v;
        }
      }
    }
  }

  std::uint32_t claim(std::string_view name, std::string_view unit,
                      std::string_view help, MetricKind kind,
                      std::uint32_t n_cells,
                      std::vector<std::uint64_t> bounds) {
    std::lock_guard<std::mutex> lock{mu};
    std::string key{name};
    if (auto it = by_name.find(key); it != by_name.end()) {
      const MetricDef& d = defs[it->second];
      if (d.kind != kind || d.bounds != bounds) {
        die("re-registration with a different kind or buckets", key);
      }
      return it->second;
    }
    if (next_cell + n_cells > kShardCells) {
      die("shard cell budget exhausted; raise kShardCells", key);
    }
    MetricDef d;
    d.name = key;
    d.unit = std::string{unit};
    d.help = std::string{help};
    d.kind = kind;
    d.cell = next_cell;
    d.n_cells = n_cells;
    d.bounds = std::move(bounds);
    MergeKind mk = kind == MetricKind::kGauge ? MergeKind::kMax
                                              : MergeKind::kSum;
    for (std::uint32_t i = 0; i < n_cells; ++i) merge[next_cell + i] = mk;
    next_cell += n_cells;
    defs.push_back(std::move(d));
    std::uint32_t idx = static_cast<std::uint32_t>(defs.size() - 1);
    by_name.emplace(std::move(key), idx);
    return idx;
  }
};

MetricsRegistry::Impl& MetricsRegistry::impl() const {
  // Leaked on purpose: thread-exit shard retirement (ShardHandle dtor) may
  // run during process teardown, after static destructors would have fired.
  static Impl* impl = new Impl{};
  return *impl;
}

MetricsRegistry& MetricsRegistry::instance() {
  static MetricsRegistry* reg = new MetricsRegistry{};
  return *reg;
}

namespace detail {
namespace {

/// Owns one thread's shard; registers on construction, retires (folds into
/// the registry accumulator) on thread exit.
struct ShardHandle {
  Shard shard;
  MetricsRegistry::Impl* impl;

  ShardHandle() : impl{&MetricsRegistry::instance().impl()} {
    std::lock_guard<std::mutex> lock{impl->mu};
    impl->live.push_back(&shard);
  }
  ~ShardHandle() {
    std::lock_guard<std::mutex> lock{impl->mu};
    impl->live.erase(std::find(impl->live.begin(), impl->live.end(), &shard));
    impl->fold_into_retired(&shard);
  }
};

}  // namespace

Cell* attach_shard() {
  thread_local ShardHandle handle;
  t_cells = handle.shard.cells;
  return t_cells;
}

}  // namespace detail

Counter MetricsRegistry::counter(std::string_view name, std::string_view unit,
                                 std::string_view help) {
  Impl& im = impl();
  std::uint32_t idx = im.claim(name, unit, help, MetricKind::kCounter, 1, {});
  return Counter{im.defs[idx].cell};
}

Gauge MetricsRegistry::gauge(std::string_view name, std::string_view unit,
                             std::string_view help) {
  Impl& im = impl();
  std::uint32_t idx = im.claim(name, unit, help, MetricKind::kGauge, 1, {});
  return Gauge{im.defs[idx].cell};
}

Histogram MetricsRegistry::histogram(std::string_view name,
                                     std::string_view unit,
                                     std::string_view help,
                                     std::vector<std::uint64_t> bucket_bounds) {
  if (bucket_bounds.empty() ||
      !std::is_sorted(bucket_bounds.begin(), bucket_bounds.end())) {
    die("histogram bounds must be non-empty and ascending", std::string{name});
  }
  Impl& im = impl();
  std::uint32_t n_cells =
      static_cast<std::uint32_t>(bucket_bounds.size() + 2);  // +overflow +sum
  std::uint32_t idx = im.claim(name, unit, help, MetricKind::kHistogram,
                               n_cells, std::move(bucket_bounds));
  const MetricDef& d = im.defs[idx];
  return Histogram{d.cell, d.bounds.data(), d.bounds.size()};
}

namespace {

/// Fold just one instrument's cells (cold accessor path).
void merge_range(const MetricsRegistry::Impl& im, std::uint32_t first,
                 std::uint32_t n, std::uint64_t* out) {
  std::lock_guard<std::mutex> lock{im.mu};
  for (std::uint32_t i = 0; i < n; ++i) out[i] = im.retired[first + i];
  for (const Shard* s : im.live) {
    for (std::uint32_t i = 0; i < n; ++i) {
      std::uint64_t v = s->cells[first + i].load(std::memory_order_relaxed);
      if (im.merge[first + i] == MergeKind::kMax) {
        out[i] = std::max(out[i], v);
      } else {
        out[i] += v;
      }
    }
  }
}

void zero_range(MetricsRegistry::Impl& im, std::uint32_t first,
                std::uint32_t n) {
  std::lock_guard<std::mutex> lock{im.mu};
  for (std::uint32_t i = 0; i < n; ++i) im.retired[first + i] = 0;
  for (Shard* s : im.live) {
    for (std::uint32_t i = 0; i < n; ++i) {
      s->cells[first + i].store(0, std::memory_order_relaxed);
    }
  }
}

MetricsRegistry::Impl& the_impl() { return MetricsRegistry::instance().impl(); }

}  // namespace

std::uint64_t Counter::total() const {
  std::uint64_t v = 0;
  merge_range(the_impl(), cell_, 1, &v);
  return v;
}

void Counter::reset() const { zero_range(the_impl(), cell_, 1); }

std::uint64_t Gauge::max_value() const {
  std::uint64_t v = 0;
  merge_range(the_impl(), cell_, 1, &v);
  return v;
}

void Gauge::reset() const { zero_range(the_impl(), cell_, 1); }

std::uint64_t Histogram::count() const {
  std::vector<std::uint64_t> v(n_bounds_ + 2);
  merge_range(the_impl(), cell_, static_cast<std::uint32_t>(v.size()),
              v.data());
  std::uint64_t total = 0;
  for (std::size_t i = 0; i <= n_bounds_; ++i) total += v[i];
  return total;
}

std::uint64_t Histogram::sum() const {
  std::vector<std::uint64_t> v(n_bounds_ + 2);
  merge_range(the_impl(), cell_, static_cast<std::uint32_t>(v.size()),
              v.data());
  return v[n_bounds_ + 1];
}

void Histogram::reset() const {
  zero_range(the_impl(), cell_, static_cast<std::uint32_t>(n_bounds_ + 2));
}

MetricsSnapshot MetricsRegistry::snapshot() const {
  Impl& im = impl();
  MetricsSnapshot snap;
  std::vector<std::uint64_t> cells(kShardCells);
  {
    std::lock_guard<std::mutex> lock{im.mu};
    im.merged(cells.data());
    snap.metrics.reserve(im.defs.size());
    for (const MetricDef& d : im.defs) {
      MetricValue mv;
      mv.name = d.name;
      mv.unit = d.unit;
      mv.help = d.help;
      mv.kind = d.kind;
      if (d.kind == MetricKind::kHistogram) {
        mv.bounds = d.bounds;
        mv.buckets.assign(cells.begin() + d.cell,
                          cells.begin() + d.cell + d.bounds.size() + 1);
        mv.sum = cells[d.cell + d.bounds.size() + 1];
        mv.value = 0;
        for (std::uint64_t b : mv.buckets) mv.value += b;
      } else {
        mv.value = cells[d.cell];
      }
      snap.metrics.push_back(std::move(mv));
    }
  }
  std::sort(snap.metrics.begin(), snap.metrics.end(),
            [](const MetricValue& a, const MetricValue& b) {
              return a.name < b.name;
            });
  return snap;
}

void MetricsRegistry::reset() {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mu};
  std::fill(im.retired, im.retired + kShardCells, 0);
  for (Shard* s : im.live) {
    for (std::size_t i = 0; i < kShardCells; ++i) {
      s->cells[i].store(0, std::memory_order_relaxed);
    }
  }
}

std::size_t MetricsRegistry::metric_count() const {
  Impl& im = impl();
  std::lock_guard<std::mutex> lock{im.mu};
  return im.defs.size();
}

const MetricValue* MetricsSnapshot::find(std::string_view name) const {
  auto it = std::lower_bound(
      metrics.begin(), metrics.end(), name,
      [](const MetricValue& m, std::string_view n) { return m.name < n; });
  if (it == metrics.end() || it->name != name) return nullptr;
  return &*it;
}

namespace {

void append_escaped(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void append_u64_array(std::string& out, const std::vector<std::uint64_t>& v) {
  out += '[';
  for (std::size_t i = 0; i < v.size(); ++i) {
    if (i) out += ',';
    out += std::to_string(v[i]);
  }
  out += ']';
}

}  // namespace

std::string MetricsSnapshot::to_json() const {
  std::string out = "{\"metrics\":[";
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const MetricValue& m = metrics[i];
    if (i) out += ',';
    out += "{\"kind\":\"";
    out += to_string(m.kind);
    out += "\",\"name\":\"";
    append_escaped(out, m.name);
    out += "\",\"unit\":\"";
    append_escaped(out, m.unit);
    out += "\",\"value\":";
    out += std::to_string(m.value);
    if (m.kind == MetricKind::kHistogram) {
      out += ",\"bounds\":";
      append_u64_array(out, m.bounds);
      out += ",\"buckets\":";
      append_u64_array(out, m.buckets);
      out += ",\"sum\":";
      out += std::to_string(m.sum);
    }
    out += '}';
  }
  out += "]}";
  return out;
}

std::string MetricsSnapshot::to_text() const {
  std::size_t w = 4;
  for (const MetricValue& m : metrics) w = std::max(w, m.name.size());
  std::string out;
  for (const MetricValue& m : metrics) {
    out += m.name;
    out.append(w - m.name.size() + 2, ' ');
    out += std::to_string(m.value);
    if (!m.unit.empty()) {
      out += ' ';
      out += m.unit;
    }
    if (m.kind == MetricKind::kHistogram) {
      out += "  (sum ";
      out += std::to_string(m.sum);
      out += ')';
    }
    out += '\n';
  }
  return out;
}

}  // namespace bnm::obs

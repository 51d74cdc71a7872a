#include "ledger.h"

#include <sys/resource.h>

#include <algorithm>
#include <atomic>
#include <cinttypes>
#include <cstdio>

#include "obs/prof.h"

namespace e2e {

std::int64_t to_ns(Clock::time_point t) {
  static const Clock::time_point epoch = Clock::now();
  return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
      .count();
}

int thread_index() {
  static std::atomic<int> next{0};
  thread_local const int id = next.fetch_add(1);
  return id;
}

// --- SpanLog ----------------------------------------------------------------

std::size_t SpanLog::add(const char* name, std::size_t parent, std::int64_t t0,
                         std::int64_t t1, int thread) {
  std::lock_guard<std::mutex> lock{mu_};
  spans_.push_back(Span{name, parent, thread, t0, t1});
  return spans_.size() - 1;
}

std::size_t SpanLog::open(const char* name, std::size_t parent) {
  const std::int64_t t = now_ns();
  return add(name, parent, t, t, thread_index());
}

void SpanLog::close(std::size_t id) {
  const std::int64_t t = now_ns();
  std::lock_guard<std::mutex> lock{mu_};
  spans_[id].t1 = t;
}

std::vector<Span> SpanLog::spans() const {
  std::lock_guard<std::mutex> lock{mu_};
  return spans_;
}

bool SpanLog::write_chrome_trace(const std::string& path) const {
  const std::vector<Span> all = spans();
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (!f) return false;
  std::fprintf(f, "{\"traceEvents\":[\n");
  for (std::size_t i = 0; i < all.size(); ++i) {
    const Span& s = all[i];
    std::fprintf(f,
                 "{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                 "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                 "\"parent\":%" PRId64 "}}%s\n",
                 s.name, s.thread, static_cast<double>(s.t0) / 1e3,
                 static_cast<double>(s.t1 - s.t0) / 1e3, i,
                 s.parent == SpanLog::kRoot ? std::int64_t{-1}
                                            : static_cast<std::int64_t>(s.parent),
                 i + 1 < all.size() ? "," : "");
  }
  std::fprintf(f, "]}\n");
  return std::fclose(f) == 0;
}

// --- SpanTree ---------------------------------------------------------------

namespace {

struct Interval {
  std::int64_t t0 = 0;
  std::int64_t t1 = 0;
};

/// Length of the union of `v`, clipped to [lo, hi].
std::int64_t union_length(std::vector<Interval> v, std::int64_t lo,
                          std::int64_t hi) {
  std::sort(v.begin(), v.end(),
            [](const Interval& a, const Interval& b) { return a.t0 < b.t0; });
  std::int64_t total = 0;
  std::int64_t cur0 = 0, cur1 = 0;
  bool open = false;
  for (const Interval& iv : v) {
    const std::int64_t a = std::max(iv.t0, lo);
    const std::int64_t b = std::min(iv.t1, hi);
    if (b <= a) continue;
    if (open && a <= cur1) {
      cur1 = std::max(cur1, b);
      continue;
    }
    if (open) total += cur1 - cur0;
    cur0 = a;
    cur1 = b;
    open = true;
  }
  if (open) total += cur1 - cur0;
  return total;
}

}  // namespace

SpanTree::SpanTree(std::vector<Span> spans)
    : spans_{std::move(spans)}, children_(spans_.size()) {
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent != SpanLog::kRoot) {
      children_[spans_[i].parent].push_back(i);
    }
  }
}

std::int64_t SpanTree::self_of(std::size_t i) const {
  const Span& s = spans_[i];
  std::vector<Interval> kids;
  kids.reserve(children_[i].size());
  for (std::size_t c : children_[i]) {
    kids.push_back({spans_[c].t0, spans_[c].t1});
  }
  return (s.t1 - s.t0) - union_length(std::move(kids), s.t0, s.t1);
}

std::int64_t SpanTree::total_ns(std::string_view name) const {
  std::int64_t sum = 0;
  for (const Span& s : spans_) {
    if (name == s.name) sum += s.t1 - s.t0;
  }
  return sum;
}

std::int64_t SpanTree::self_ns(std::string_view name) const {
  std::int64_t sum = 0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    if (name == spans_[i].name) sum += self_of(i);
  }
  return sum;
}

double SpanTree::coverage() const {
  std::int64_t wall = 0;
  std::int64_t covered = 0;
  for (std::size_t r = 0; r < spans_.size(); ++r) {
    if (spans_[r].parent != SpanLog::kRoot) continue;
    wall += spans_[r].t1 - spans_[r].t0;
    std::vector<Interval> leaves;
    std::vector<std::size_t> stack = children_[r];
    while (!stack.empty()) {
      const std::size_t i = stack.back();
      stack.pop_back();
      if (children_[i].empty()) {
        leaves.push_back({spans_[i].t0, spans_[i].t1});
      } else {
        stack.insert(stack.end(), children_[i].begin(), children_[i].end());
      }
    }
    covered += union_length(std::move(leaves), spans_[r].t0, spans_[r].t1);
  }
  return ratio(static_cast<double>(covered), static_cast<double>(wall));
}

// --- statistics -------------------------------------------------------------

double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = q * static_cast<double>(v.size());
  std::size_t i = static_cast<std::size_t>(rank);
  if (static_cast<double>(i) == rank && i > 0) --i;  // nearest rank: ceil - 1
  return v[std::min(i, v.size() - 1)];
}

double median(std::vector<double> v) { return quantile(std::move(v), 0.5); }

void Fnv1a::update(std::string_view bytes) {
  for (unsigned char c : bytes) {
    h_ ^= c;
    h_ *= 0x100000001b3ull;
  }
}

std::string Fnv1a::hex() const {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h_);
  return buf;
}

std::string fnv1a_hex(std::string_view bytes) {
  Fnv1a h;
  h.update(bytes);
  return h.hex();
}

CounterDelta::CounterDelta()
    : start_{bnm::obs::MetricsRegistry::instance().snapshot()} {}

std::map<std::string, double> CounterDelta::delta() const {
  std::map<std::string, double> out;
  for (const bnm::obs::MetricValue& m :
       bnm::obs::MetricsRegistry::instance().snapshot().metrics) {
    const bnm::obs::MetricValue* before = start_.find(m.name);
    out[m.name] = static_cast<double>(m.value) -
                  static_cast<double>(before ? before->value : 0);
  }
  return out;
}

std::map<std::string, double> prof_totals_ns() {
  std::map<std::string, double> out;
  for (const bnm::obs::prof::ProfEntry& e : bnm::obs::prof::report()) {
    out[e.name] = static_cast<double>(e.total_ns);
  }
  return out;
}

double peak_rss_mb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0.0;
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

}  // namespace e2e

// Tests for the observability layer (src/obs + the structured sim::Trace):
// registry shard-merge determinism, histogram bucket edges, trace exporter
// round-trips through obs::json, ProfScope nesting, the disabled-path
// no-allocation contract, and the TraceView index-backed filters.
//
// These live in their own executable (bnm_obs_tests, ctest label `obs`)
// because the no-allocation test replaces the global operator new, which
// must not leak into the tier1 binary.
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "obs/json.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "obs/trace_export.h"
#include "sim/time.h"
#include "sim/trace.h"

// ---------------------------------------------------------------------------
// Global allocation counter: every operator-new in this binary bumps it.
// The disabled-path test warms up the TLS structures, then asserts zero
// allocations across many disabled ProfScope entries and Counter::adds.
static std::atomic<std::uint64_t> g_allocs{0};

// GCC pairs our replaced operator new (malloc-backed) with std::free and
// flags a mismatch; the pairing is intentional and correct for a full
// global replacement, so silence the false positive for this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using bnm::obs::MetricsRegistry;
using bnm::sim::Duration;
using bnm::sim::TimePoint;
using bnm::sim::Trace;
using bnm::sim::TraceEventKind;

TEST(Metrics, CounterAddAndReset) {
  auto& reg = MetricsRegistry::instance();
  const auto c = reg.counter("test.obs.counter", "ops", "test counter");
  c.reset();
  EXPECT_EQ(c.total(), 0u);
  c.add();
  c.add(41);
  EXPECT_EQ(c.total(), 42u);
  // Registration is idempotent: same name + kind is the same instrument.
  const auto again = reg.counter("test.obs.counter", "ops", "test counter");
  again.add(8);
  EXPECT_EQ(c.total(), 50u);
  c.reset();
  EXPECT_EQ(c.total(), 0u);
}

TEST(Metrics, GaugeKeepsHighWaterMark) {
  auto& reg = MetricsRegistry::instance();
  const auto g = reg.gauge("test.obs.gauge", "bytes", "test gauge");
  g.reset();
  g.record_max(10);
  g.record_max(7);  // lower: ignored
  EXPECT_EQ(g.max_value(), 10u);
  g.record_max(1000);
  EXPECT_EQ(g.max_value(), 1000u);
}

TEST(Metrics, HistogramBucketEdges) {
  auto& reg = MetricsRegistry::instance();
  const auto h = reg.histogram("test.obs.hist", "us", "test histogram",
                               {10, 20, 50});
  h.reset();
  // A sample lands in the first bucket whose bound is >= value; strictly
  // above the last bound overflows.
  h.observe(0);    // bucket 0 (<= 10)
  h.observe(10);   // bucket 0: bound is inclusive
  h.observe(11);   // bucket 1 (<= 20)
  h.observe(20);   // bucket 1
  h.observe(21);   // bucket 2 (<= 50)
  h.observe(50);   // bucket 2
  h.observe(51);   // overflow
  h.observe(5000); // overflow
  EXPECT_EQ(h.count(), 8u);
  EXPECT_EQ(h.sum(), 0u + 10 + 11 + 20 + 21 + 50 + 51 + 5000);

  const auto snap = reg.snapshot();
  const auto* v = snap.find("test.obs.hist");
  ASSERT_NE(v, nullptr);
  ASSERT_EQ(v->bounds, (std::vector<std::uint64_t>{10, 20, 50}));
  ASSERT_EQ(v->buckets.size(), 4u);
  EXPECT_EQ(v->buckets[0], 2u);
  EXPECT_EQ(v->buckets[1], 2u);
  EXPECT_EQ(v->buckets[2], 2u);
  EXPECT_EQ(v->buckets[3], 2u);  // overflow
  EXPECT_EQ(v->value, 8u);       // histogram `value` is the count
}

// The registry's core guarantee: a snapshot of state built by several
// threads is byte-identical to the same totals recorded serially — sums
// and maxes are order-independent, and snapshots sort by name.
TEST(Metrics, ShardMergeIsDeterministic) {
  auto& reg = MetricsRegistry::instance();
  const auto c = reg.counter("test.obs.merge.counter", "ops", "merge test");
  const auto g = reg.gauge("test.obs.merge.gauge", "bytes", "merge test");
  const auto h =
      reg.histogram("test.obs.merge.hist", "us", "merge test", {100, 1000});

  constexpr int kThreads = 4;
  constexpr int kPerThread = 1000;

  reg.reset();
  for (int t = 0; t < kThreads; ++t) {
    for (int i = 0; i < kPerThread; ++i) {
      c.add(static_cast<std::uint64_t>(i));
      g.record_max(static_cast<std::uint64_t>(t * 10000 + i));
      h.observe(static_cast<std::uint64_t>(i));
    }
  }
  const std::string serial = reg.snapshot().to_json();

  reg.reset();
  std::vector<std::thread> workers;
  for (int t = 0; t < kThreads; ++t) {
    workers.emplace_back([&, t] {
      for (int i = 0; i < kPerThread; ++i) {
        c.add(static_cast<std::uint64_t>(i));
        g.record_max(static_cast<std::uint64_t>(t * 10000 + i));
        h.observe(static_cast<std::uint64_t>(i));
      }
    });
  }
  for (auto& w : workers) w.join();
  const std::string parallel = reg.snapshot().to_json();

  EXPECT_EQ(serial, parallel);
  // And the snapshot itself is stable: two merges of the same state agree.
  EXPECT_EQ(parallel, reg.snapshot().to_json());

  // The JSON parses back with the documented shape.
  auto doc = bnm::obs::json::parse(parallel);
  ASSERT_TRUE(doc.has_value());
  const auto* metrics = doc->find("metrics");
  ASSERT_NE(metrics, nullptr);
  ASSERT_TRUE(metrics->is_array());
  ASSERT_FALSE(metrics->items().empty());
}

// Live-thread shards and retired (exited-thread) shards must merge to the
// same totals: snapshot before the workers exit == snapshot after.
TEST(Metrics, RetiredShardsFoldExactly) {
  auto& reg = MetricsRegistry::instance();
  const auto c = reg.counter("test.obs.retire.counter", "ops", "retire test");
  reg.reset();

  std::atomic<bool> go{false};
  std::atomic<int> done{0};
  std::vector<std::thread> workers;
  for (int t = 0; t < 3; ++t) {
    workers.emplace_back([&] {
      c.add(111);
      done.fetch_add(1);
      while (!go.load()) std::this_thread::yield();
    });
  }
  while (done.load() != 3) std::this_thread::yield();
  const std::uint64_t live_total = c.total();  // workers still alive
  go.store(true);
  for (auto& w : workers) w.join();
  EXPECT_EQ(live_total, 333u);
  EXPECT_EQ(c.total(), 333u);  // folded into retired, nothing lost
}

// Cells are single-writer plain stores, read by other threads only through
// the registry. A snapshot taken while writers run must still be sane: each
// counter only grows from one snapshot to the next (no torn or lost-then-
// restored values), and after the writers join the totals are exact.
TEST(Metrics, ConcurrentSnapshotSeesMonotonicCounters) {
  auto& reg = MetricsRegistry::instance();
  const auto c =
      reg.counter("test.obs.concurrent.counter", "ops", "concurrency test");
  const auto h = reg.histogram("test.obs.concurrent.hist", "us",
                               "concurrency test", {10, 100});
  c.reset();
  h.reset();

  constexpr int kThreads = 3;
  constexpr std::uint64_t kPerThread = 20000;
  std::atomic<int> running{kThreads};
  std::vector<std::thread> writers;
  for (int t = 0; t < kThreads; ++t) {
    writers.emplace_back([&] {
      for (std::uint64_t i = 0; i < kPerThread; ++i) {
        c.add(1);
        h.observe(i % 200);
      }
      running.fetch_sub(1);
    });
  }
  std::uint64_t last_counter = 0;
  std::uint64_t last_count = 0;
  std::uint64_t last_sum = 0;
  int snapshots = 0;
  while (running.load() > 0 || snapshots < 2) {
    const auto snap = reg.snapshot();
    const auto* cv = snap.find("test.obs.concurrent.counter");
    const auto* hv = snap.find("test.obs.concurrent.hist");
    ASSERT_NE(cv, nullptr);
    ASSERT_NE(hv, nullptr);
    EXPECT_GE(cv->value, last_counter);
    EXPECT_GE(hv->value, last_count);
    EXPECT_GE(hv->sum, last_sum);
    EXPECT_LE(cv->value, kThreads * kPerThread);
    last_counter = cv->value;
    last_count = hv->value;
    last_sum = hv->sum;
    ++snapshots;
  }
  for (auto& w : writers) w.join();

  std::uint64_t per_thread_sum = 0;
  for (std::uint64_t i = 0; i < kPerThread; ++i) per_thread_sum += i % 200;
  EXPECT_EQ(c.total(), kThreads * kPerThread);
  EXPECT_EQ(h.count(), kThreads * kPerThread);
  EXPECT_EQ(h.sum(), kThreads * per_thread_sum);
}

TEST(Prof, ScopeNestingAttributesTimeToEachSite) {
  namespace prof = bnm::obs::prof;
  prof::reset();
  prof::set_enabled(true);

  auto inner = [] { BNM_PROF_SCOPE("test.obs.inner"); };
  constexpr int kOuter = 5;
  constexpr int kInnerPerOuter = 3;
  for (int i = 0; i < kOuter; ++i) {
    BNM_PROF_SCOPE("test.obs.outer");
    for (int j = 0; j < kInnerPerOuter; ++j) inner();
  }
  prof::set_enabled(false);

  const auto entries = prof::report();
  const prof::ProfEntry* outer = nullptr;
  const prof::ProfEntry* inner_e = nullptr;
  for (const auto& e : entries) {
    if (e.name == "test.obs.outer") outer = &e;
    if (e.name == "test.obs.inner") inner_e = &e;
  }
  ASSERT_NE(outer, nullptr);
  ASSERT_NE(inner_e, nullptr);
  EXPECT_EQ(outer->calls, static_cast<std::uint64_t>(kOuter));
  EXPECT_EQ(inner_e->calls,
            static_cast<std::uint64_t>(kOuter * kInnerPerOuter));
  // The outer scope contains every inner scope, so it cannot be cheaper.
  EXPECT_GE(outer->total_ns, inner_e->total_ns);
  EXPECT_GE(outer->max_ns, outer->total_ns / outer->calls);

  prof::reset();
  // reset() zeroes: zero-call rows are dropped from the report.
  for (const auto& e : prof::report()) {
    EXPECT_NE(e.name, "test.obs.outer");
    EXPECT_NE(e.name, "test.obs.inner");
  }
}

TEST(Prof, DisabledScopesRecordNothing) {
  namespace prof = bnm::obs::prof;
  prof::reset();
  ASSERT_FALSE(prof::enabled());
  for (int i = 0; i < 100; ++i) {
    BNM_PROF_SCOPE("test.obs.disabled");
  }
  for (const auto& e : prof::report()) {
    EXPECT_NE(e.name, "test.obs.disabled");
  }
}

// The zero-overhead-when-disabled contract (docs/OBSERVABILITY.md):
// a disabled ProfScope, a Counter::add and a disabled Trace guard must not
// allocate. Warm up the thread-local structures first — the assertion is
// about the steady state, not first-use registration.
TEST(Prof, DisabledPathDoesNotAllocate) {
  namespace prof = bnm::obs::prof;
  auto& reg = MetricsRegistry::instance();
  const auto c = reg.counter("test.obs.noalloc", "ops", "no-alloc test");

  bnm::sim::Trace trace;
  ASSERT_FALSE(trace.enabled());
  ASSERT_FALSE(prof::enabled());

  const auto body = [&] {
    BNM_PROF_SCOPE("test.obs.noalloc.scope");
    c.add(2);
    if (trace.enabled()) {
      trace.emit(TimePoint::epoch(), "never", "never");
    }
  };
  // Warm-up: register the scope's site (a function-local static — its one
  // cold allocation happens here) and this thread's shard.
  body();

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (int i = 0; i < 10000; ++i) body();
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after, before);
}

// ---------------------------------------------------------------------------
// Structured trace + exporters.

Trace make_sample_trace() {
  Trace t;
  t.set_enabled(true);
  t.emit(TimePoint::from_ns(1500), "scheduler", "legacy instant");
  t.emit_span(TimePoint::from_ns(2000), Duration::micros(3), "link0",
              "hop pkt#1",
              {{"packet_id", std::int64_t{1}}, {"wire_bytes", std::int64_t{590}}});
  t.emit_instant(TimePoint::from_ns(4000), "fault", "drop pkt#2",
                 {{"fault", std::string{"iid-loss"}},
                  {"lossy", true},
                  {"p", 0.25}});
  return t;
}

TEST(Trace, StructuredRecordsCarryKindDurationAttrs) {
  const Trace t = make_sample_trace();
  ASSERT_EQ(t.records().size(), 3u);

  const auto& legacy = t.records()[0];
  EXPECT_EQ(legacy.kind, TraceEventKind::kInstant);
  EXPECT_TRUE(legacy.attrs.empty());

  const auto& span = t.records()[1];
  EXPECT_EQ(span.kind, TraceEventKind::kSpan);
  EXPECT_EQ(span.duration.ns(), 3000);
  ASSERT_NE(span.attr("packet_id"), nullptr);
  EXPECT_EQ(std::get<std::int64_t>(span.attr("packet_id")->value), 1);
  EXPECT_EQ(span.attr("missing"), nullptr);

  const auto& inst = t.records()[2];
  EXPECT_EQ(std::get<bool>(inst.attr("lossy")->value), true);
  EXPECT_EQ(std::get<std::string>(inst.attr("fault")->value), "iid-loss");
}

TEST(Trace, ViewsAreIndexBackedAndCopyFree) {
  Trace t = make_sample_trace();
  t.emit(TimePoint::from_ns(5000), "scheduler", "second scheduler event");

  const auto sched = t.view_by_component("scheduler");
  ASSERT_EQ(sched.size(), 2u);
  EXPECT_EQ(sched[0].message, "legacy instant");
  EXPECT_EQ(sched[1].message, "second scheduler event");
  EXPECT_TRUE(sched.contains("second"));
  EXPECT_FALSE(sched.contains("hop"));  // different component
  // The view references the trace's records, no copies.
  EXPECT_EQ(&sched[0], &t.records()[0]);

  std::size_t n = 0;
  for (const auto& r : sched) {
    EXPECT_EQ(r.component, "scheduler");
    ++n;
  }
  EXPECT_EQ(n, 2u);

  EXPECT_TRUE(t.view_by_component("nope").empty());
  EXPECT_EQ(t.view_by_attr("packet_id").size(), 1u);
  EXPECT_EQ(t.view_by_attr("fault").size(), 1u);

  EXPECT_TRUE(t.contains("hop pkt#1"));
  EXPECT_FALSE(t.contains("absent"));

  t.clear();
  EXPECT_TRUE(t.records().empty());
  EXPECT_TRUE(t.view_by_component("scheduler").empty());
  EXPECT_TRUE(t.view_by_attr("packet_id").empty());
}

TEST(TraceExport, JsonlGoldenAndRoundTrip) {
  const Trace t = make_sample_trace();
  const std::string jsonl = bnm::obs::trace::to_jsonl(t);

  // Golden first line: the format is documented in docs/OBSERVABILITY.md
  // and consumed by outside tooling, so lock the exact bytes.
  const std::string first = jsonl.substr(0, jsonl.find('\n'));
  EXPECT_EQ(first,
            "{\"ts_us\":1.500,\"component\":\"scheduler\","
            "\"name\":\"legacy instant\",\"kind\":\"instant\"}");

  // Every line parses back, and the span's fields round-trip.
  std::vector<bnm::obs::json::Value> lines;
  std::size_t start = 0;
  while (start < jsonl.size()) {
    const std::size_t nl = jsonl.find('\n', start);
    ASSERT_NE(nl, std::string::npos);
    auto v = bnm::obs::json::parse(
        std::string_view{jsonl}.substr(start, nl - start));
    ASSERT_TRUE(v.has_value());
    lines.push_back(std::move(*v));
    start = nl + 1;
  }
  ASSERT_EQ(lines.size(), 3u);

  const auto& span = lines[1];
  EXPECT_EQ(span.find("kind")->as_string(), "span");
  EXPECT_DOUBLE_EQ(span.find("ts_us")->as_double(), 2.0);
  EXPECT_DOUBLE_EQ(span.find("dur_us")->as_double(), 3.0);
  const auto* attrs = span.find("attrs");
  ASSERT_NE(attrs, nullptr);
  EXPECT_EQ(attrs->find("packet_id")->as_int(), 1);
  EXPECT_EQ(attrs->find("wire_bytes")->as_int(), 590);

  const auto& inst = lines[2];
  EXPECT_EQ(inst.find("kind")->as_string(), "instant");
  EXPECT_EQ(inst.find("dur_us"), nullptr);
  EXPECT_TRUE(inst.find("attrs")->find("lossy")->as_bool());
  EXPECT_DOUBLE_EQ(inst.find("attrs")->find("p")->as_double(), 0.25);
}

TEST(TraceExport, ChromeTraceRoundTrip) {
  const Trace t = make_sample_trace();
  const std::string chrome = bnm::obs::trace::to_chrome_trace(t);

  auto doc = bnm::obs::json::parse(chrome);
  ASSERT_TRUE(doc.has_value());
  EXPECT_EQ(doc->find("displayTimeUnit")->as_string(), "ms");
  const auto* events = doc->find("traceEvents");
  ASSERT_NE(events, nullptr);
  // 3 components -> 3 thread_name metadata events, plus 3 records.
  ASSERT_EQ(events->items().size(), 6u);

  // Metadata rows name each component, tids in first-appearance order.
  const auto& m0 = events->items()[0];
  EXPECT_EQ(m0.find("ph")->as_string(), "M");
  EXPECT_EQ(m0.find("tid")->as_int(), 1);
  EXPECT_EQ(m0.find("args")->find("name")->as_string(), "scheduler");
  EXPECT_EQ(events->items()[1].find("args")->find("name")->as_string(),
            "link0");
  EXPECT_EQ(events->items()[2].find("args")->find("name")->as_string(),
            "fault");

  // The span is a complete event with ts+dur in microseconds on the
  // component's synthetic thread.
  const auto& span = events->items()[4];
  EXPECT_EQ(span.find("ph")->as_string(), "X");
  EXPECT_EQ(span.find("name")->as_string(), "hop pkt#1");
  EXPECT_EQ(span.find("cat")->as_string(), "link0");
  EXPECT_EQ(span.find("tid")->as_int(), 2);
  EXPECT_DOUBLE_EQ(span.find("ts")->as_double(), 2.0);
  EXPECT_DOUBLE_EQ(span.find("dur")->as_double(), 3.0);
  EXPECT_EQ(span.find("args")->find("packet_id")->as_int(), 1);

  const auto& inst = events->items()[5];
  EXPECT_EQ(inst.find("ph")->as_string(), "i");
  EXPECT_EQ(inst.find("s")->as_string(), "t");
  EXPECT_EQ(inst.find("dur"), nullptr);
}

TEST(TraceExport, DisabledTraceExportsEmpty) {
  Trace t;  // disabled by default
  t.emit(TimePoint::epoch(), "scheduler", "dropped");
  EXPECT_TRUE(t.records().empty());
  EXPECT_EQ(bnm::obs::trace::to_jsonl(t), "");
  EXPECT_EQ(bnm::obs::trace::to_chrome_trace(t),
            "{\"traceEvents\":[],\"displayTimeUnit\":\"ms\"}");
}

TEST(Json, ParseRejectsMalformedInput) {
  using bnm::obs::json::parse;
  std::string err;
  EXPECT_FALSE(parse("{", &err).has_value());
  EXPECT_FALSE(err.empty());
  EXPECT_FALSE(parse("{\"a\":1} trailing", nullptr).has_value());
  EXPECT_FALSE(parse("[1,]", nullptr).has_value());

  auto v = parse("{\"a\":[1,2.5,\"x\\n\",true,null]}");
  ASSERT_TRUE(v.has_value());
  const auto* a = v->find("a");
  ASSERT_NE(a, nullptr);
  ASSERT_EQ(a->items().size(), 5u);
  EXPECT_EQ(a->items()[0].as_int(), 1);
  EXPECT_DOUBLE_EQ(a->items()[1].as_double(), 2.5);
  EXPECT_EQ(a->items()[2].as_string(), "x\n");
  EXPECT_TRUE(a->items()[3].as_bool());
  EXPECT_TRUE(a->items()[4].is_null());
  // dump() round-trips our own output byte-for-byte.
  EXPECT_EQ(v->dump(), "{\"a\":[1,2.5,\"x\\n\",true,null]}");
}

TEST(Json, ParseRejectsNestingPastTheCapInsteadOfOverflowingTheStack) {
  using bnm::obs::json::kMaxDepth;
  using bnm::obs::json::parse;
  std::string err;
  EXPECT_FALSE(parse(std::string(1000000, '['), &err).has_value());
  EXPECT_NE(err.find("nesting too deep"), std::string::npos) << err;

  const auto nested = [](int depth) {
    return std::string(depth, '[') + std::string(depth, ']');
  };
  EXPECT_TRUE(parse(nested(kMaxDepth)).has_value());
  EXPECT_FALSE(parse(nested(kMaxDepth + 1)).has_value());
  EXPECT_FALSE(parse(std::string(1000000, '{'), nullptr).has_value());
}

TEST(Json, DumpsDoublesExactlyAsPrintf17g) {
  // Every report, checkpoint and bench digest depends on these bytes.
  const auto printf17g = [](double d) {
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", d);
    return std::string{buf};
  };
  std::vector<double> values{0.0,    -0.0,  0.1,   1.5,   3.0,    100.25,
                              1e-17,  1e16,  1e17,  1e21,  5e-324, -3.5,
                              1.7976931348623157e308, 12345678.000000001};
  std::uint64_t bits = 0x9E3779B97F4A7C15ull;
  for (int i = 0; i < 20000; ++i) {
    bits ^= bits << 13;  // xorshift64: arbitrary bit patterns
    bits ^= bits >> 7;
    bits ^= bits << 17;
    double d = 0;
    std::memcpy(&d, &bits, sizeof d);
    if (std::isfinite(d)) values.push_back(d);
    values.push_back(static_cast<double>(bits % 10000000) / 1000.0);
  }
  for (double d : values) {
    ASSERT_EQ(bnm::obs::json::Value::number(d).dump(), printf17g(d)) << d;
  }
}

}  // namespace

// Cost of the observability layer, and proof it cannot skew results.
//
// The obs contract (DESIGN.md §3e): metrics counters are always on and
// cost one thread-local relaxed add; profiling scopes and tracing are off
// by default and must be near-free while disabled; and nothing in the
// layer may perturb measurement results. Three sections:
//
//   1. Micro: ns/op for a raw uint64 add vs obs::Counter::add, a ProfScope
//      with profiling disabled vs enabled, and a guarded trace emit with
//      tracing disabled.
//   2. Experiment macro A/B: every method on one case, profiling disabled
//      vs enabled — samples must be bit-identical, and the *disabled*-path
//      cost (scope entries observed in the enabled pass x measured
//      disabled-scope ns, as a fraction of the disabled pass wall-clock)
//      must stay under 1%.
//   3. Registry determinism: a MetricsRegistry snapshot taken after a
//      parallel run_matrix must serialize byte-identically to the snapshot
//      after the same matrix run serially.
//
// Emits BENCH_obs_overhead.json (gates[] included); exits non-zero if any
// gate fails.
// Schema: docs/BENCH_SCHEMAS.md.
//
//   $ obs_overhead [--runs=N] [--jobs=N]   (default 20 runs per cell)
#include <chrono>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/simulation.h"

using namespace bnm;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct MicroTimings {
  std::size_t iters = 0;
  double raw_add_ns = 0;
  double counter_add_ns = 0;
  double profscope_disabled_ns = 0;
  double profscope_enabled_ns = 0;
  double trace_emit_disabled_ns = 0;
};

MicroTimings bench_micro() {
  MicroTimings t;
  constexpr std::size_t kIters = 20000000;
  t.iters = kIters;

  // Raw baseline: what the cheapest possible counter would cost.
  {
    volatile std::uint64_t sink = 0;
    std::uint64_t local = 0;
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) local += i;
    const auto b = Clock::now();
    sink = local;
    (void)sink;
    t.raw_add_ns = ms_between(a, b) * 1e6 / kIters;
  }

  const obs::Counter counter = obs::MetricsRegistry::instance().counter(
      "bench.obs_overhead.scratch", "ops", "micro-bench scratch counter");
  {
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) counter.add(1);
    const auto b = Clock::now();
    t.counter_add_ns = ms_between(a, b) * 1e6 / kIters;
  }
  counter.reset();

  obs::prof::set_enabled(false);
  {
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      BNM_PROF_SCOPE("bench.scratch_scope");
    }
    const auto b = Clock::now();
    t.profscope_disabled_ns = ms_between(a, b) * 1e6 / kIters;
  }

  obs::prof::set_enabled(true);
  {
    // Clock reads dominate here; fewer iterations keep the bench quick.
    constexpr std::size_t kEnabledIters = kIters / 20;
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kEnabledIters; ++i) {
      BNM_PROF_SCOPE("bench.scratch_scope");
    }
    const auto b = Clock::now();
    t.profscope_enabled_ns = ms_between(a, b) * 1e6 / kEnabledIters;
  }
  obs::prof::set_enabled(false);
  obs::prof::reset();

  // The per-packet trace guard as the hot paths write it.
  {
    sim::Simulation sim{1};
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kIters; ++i) {
      if (sim.trace().enabled()) {
        sim.trace().emit_instant(sim.now(), "bench", "never-reached");
      }
    }
    const auto b = Clock::now();
    t.trace_emit_disabled_ns = ms_between(a, b) * 1e6 / kIters;
  }

  std::printf("micro: %zu iterations\n", t.iters);
  std::printf("  raw uint64 add          ... %8.2f ns/op\n", t.raw_add_ns);
  std::printf("  Counter::add            ... %8.2f ns/op\n", t.counter_add_ns);
  std::printf("  ProfScope (disabled)    ... %8.2f ns/op\n",
              t.profscope_disabled_ns);
  std::printf("  ProfScope (enabled)     ... %8.2f ns/op\n",
              t.profscope_enabled_ns);
  std::printf("  trace guard (disabled)  ... %8.2f ns/op\n",
              t.trace_emit_disabled_ns);
  return t;
}

struct MacroTimings {
  std::size_t cells = 0;
  int runs = 0;
  int reps = 0;
  double disabled_ms = 0;  ///< best-of-reps, profiling off (the norm)
  double enabled_ms = 0;   ///< best-of-reps, profiling on
  std::uint64_t scope_entries = 0;  ///< ProfScope entries in one enabled pass
  double est_disabled_overhead_percent = 0;
  bool identical = true;
  double measured_overhead_percent() const {
    return disabled_ms > 0 ? (enabled_ms / disabled_ms - 1.0) * 100.0 : 0.0;
  }
};

std::vector<core::ExperimentConfig> method_cells(int runs) {
  std::vector<core::ExperimentConfig> cells;
  for (const auto kind : browser::all_probe_kinds()) {
    core::ExperimentConfig cfg;
    cfg.browser = browser::BrowserId::kChrome;
    cfg.os = browser::OsId::kUbuntu;
    cfg.kind = kind;
    cfg.runs = runs;
    cells.push_back(cfg);
  }
  return cells;
}

bool same_samples(const core::OverheadSeries& a,
                  const core::OverheadSeries& b) {
  if (a.failures != b.failures || a.samples.size() != b.samples.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    if (x.d1_ms != y.d1_ms || x.d2_ms != y.d2_ms ||
        x.browser_rtt1_ms != y.browser_rtt1_ms ||
        x.browser_rtt2_ms != y.browser_rtt2_ms ||
        x.net_rtt1_ms != y.net_rtt1_ms || x.net_rtt2_ms != y.net_rtt2_ms ||
        x.connections_opened1 != y.connections_opened1 ||
        x.connections_opened2 != y.connections_opened2) {
      return false;
    }
  }
  return true;
}

MacroTimings bench_macro(int runs, const MicroTimings& micro) {
  MacroTimings t;
  t.runs = runs;
  t.reps = 5;
  const auto cells = method_cells(runs);
  t.cells = cells.size();

  std::printf("experiment hot path: %zu cells x %d runs, best of %d\n",
              t.cells, runs, t.reps);

  std::vector<core::OverheadSeries> off, on;
  double best_off = 0, best_on = 0;
  for (int rep = 0; rep < t.reps; ++rep) {
    obs::prof::set_enabled(false);
    const auto a = Clock::now();
    auto p = core::run_matrix(cells, 1);
    const auto b = Clock::now();

    obs::prof::reset();
    obs::prof::set_enabled(true);
    auto s = core::run_matrix(cells, 1);
    obs::prof::set_enabled(false);
    const auto c = Clock::now();

    if (rep == 0) {
      // Scope entries per enabled pass: the count of disabled-path branch
      // executions a normal (profiling-off) run would have performed.
      for (const auto& e : obs::prof::report()) t.scope_entries += e.calls;
    }

    const double pm = ms_between(a, b), sm = ms_between(b, c);
    if (rep == 0 || pm < best_off) best_off = pm;
    if (rep == 0 || sm < best_on) best_on = sm;
    if (rep == 0) {
      off = std::move(p);
      on = std::move(s);
    }
    benchutil::progress_dot();
  }
  std::printf("\n");
  t.disabled_ms = best_off;
  t.enabled_ms = best_on;

  for (std::size_t i = 0; i < off.size(); ++i) {
    if (!same_samples(off[i], on[i])) {
      t.identical = false;
      std::printf("  !! cell %zu (%s) differs with profiling enabled\n", i,
                  off[i].method_name.c_str());
    }
  }

  // The disabled path cannot be isolated by wall-clock A/B (it IS the
  // baseline), so gate on a rigorous estimate instead: every scope entry
  // costs micro.profscope_disabled_ns when profiling is off.
  if (t.disabled_ms > 0) {
    t.est_disabled_overhead_percent = 100.0 *
                                      static_cast<double>(t.scope_entries) *
                                      micro.profscope_disabled_ns /
                                      (t.disabled_ms * 1e6);
  }

  std::printf("  profiling off            ... %8.1f ms\n", t.disabled_ms);
  std::printf("  profiling on             ... %8.1f ms   (%+.2f%%)\n",
              t.enabled_ms, t.measured_overhead_percent());
  std::printf("  scope entries/pass       ... %llu\n",
              static_cast<unsigned long long>(t.scope_entries));
  std::printf("  est. disabled overhead   ... %8.4f %%\n",
              t.est_disabled_overhead_percent);
  std::printf("  results bit-identical: %s\n", t.identical ? "yes" : "NO");

  std::printf("\nprofile table (one enabled pass):\n%s",
              obs::prof::format_report(obs::prof::report()).c_str());
  obs::prof::reset();
  return t;
}

struct RegistryResult {
  std::size_t metrics = 0;
  std::size_t snapshot_bytes = 0;
  bool snapshot_identical = true;
};

RegistryResult bench_registry(int runs, int jobs) {
  RegistryResult r;
  const auto cells = method_cells(runs);
  // At least 4 workers even on single-core hosts: the point is to merge
  // shards from real threads, not to go fast.
  const int parallel_jobs =
      core::resolve_jobs(jobs > 0 ? jobs : 4, cells.size());

  obs::MetricsRegistry::instance().reset();
  core::run_matrix(cells, 1);
  const std::string serial = obs::MetricsRegistry::instance().snapshot().to_json();

  obs::MetricsRegistry::instance().reset();
  core::run_matrix(cells, parallel_jobs);
  const std::string parallel =
      obs::MetricsRegistry::instance().snapshot().to_json();

  r.metrics = obs::MetricsRegistry::instance().metric_count();
  r.snapshot_bytes = serial.size();
  r.snapshot_identical = serial == parallel;

  std::printf("registry: %zu metrics, snapshot %zu bytes\n", r.metrics,
              r.snapshot_bytes);
  std::printf("  serial vs %d-way parallel snapshot: %s\n", parallel_jobs,
              r.snapshot_identical ? "byte-identical" : "DIFFERS");
  return r;
}

benchutil::Json to_json(const MicroTimings& u, const MacroTimings& m,
                        const RegistryResult& r) {
  using namespace benchutil;
  return obj({
      {"micro", obj({
                    {"iters", integer(u.iters)},
                    {"raw_add_ns", num(u.raw_add_ns)},
                    {"counter_add_ns", num(u.counter_add_ns)},
                    {"profscope_disabled_ns", num(u.profscope_disabled_ns)},
                    {"profscope_enabled_ns", num(u.profscope_enabled_ns)},
                    {"trace_emit_disabled_ns", num(u.trace_emit_disabled_ns)},
                })},
      {"experiment",
       obj({
           {"cells", integer(m.cells)},
           {"runs_per_cell", integer(m.runs)},
           {"best_of", integer(m.reps)},
           {"disabled_ms", num(m.disabled_ms)},
           {"enabled_ms", num(m.enabled_ms)},
           {"measured_overhead_percent", num(m.measured_overhead_percent())},
           {"profiled_scope_entries", integer(m.scope_entries)},
           {"est_disabled_overhead_percent",
            num(m.est_disabled_overhead_percent)},
           {"identical", flag(m.identical)},
       })},
      {"registry", obj({
                       {"metrics", integer(r.metrics)},
                       {"snapshot_bytes", integer(r.snapshot_bytes)},
                       {"snapshot_identical", flag(r.snapshot_identical)},
                   })},
  });
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::options().runs = 20;  // overhead default; --runs=N overrides
  const auto& opts = benchutil::init(argc, argv);

  benchutil::banner("obs_overhead: disabled observability must be free");

  const MicroTimings u = bench_micro();
  std::printf("\n");
  const MacroTimings m = bench_macro(opts.runs, u);
  std::printf("\n");
  const RegistryResult r = bench_registry(opts.runs, opts.jobs);

  return benchutil::write_result(
      "BENCH_obs_overhead.json", to_json(u, m, r),
      {
          benchutil::is_true("experiment.identical"),
          benchutil::is_true("registry.snapshot_identical"),
          benchutil::below("experiment.est_disabled_overhead_percent", 1.0),
      });
}

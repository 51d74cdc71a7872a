// Performance harness for the experiment pipeline. Three sections:
//
//   1. Full Figure-3 matrix, serial (jobs=1) vs parallel (--jobs, default
//      all cores), with byte-identity checks between the result sets —
//      including a pass on the binary-heap reference queue, which must
//      match the calendar queue bit-for-bit across all 88 cells.
//   2. Capture window extraction: linear scan (the old
//      network_rtt_in_window behaviour) vs first_index_at_or_after.
//   3. Scheduler event throughput: cancellable schedule_at path (pooled
//      control blocks) vs fire-and-forget post_at path, calendar-vs-heap
//      and batched-vs-stepwise sub-benches, and the events/sec headline
//      the kernel gate puts a floor on.
//
// Emits BENCH_perf_matrix.json in the working directory, gates[] included,
// and exits non-zero when a gate fails (the byte-identity checks, the
// engine-overhead bounds, the events/sec floor; run it from a Release
// build). The speedup section reports whatever the host offers; on a
// single-core machine the parallel run cannot win and the harness says so
// instead of failing.
//
//   $ perf_matrix [--runs=N] [--jobs=N]   (default 12 runs per cell)
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "obs/prof.h"
#include "net/capture.h"
#include "sim/arena.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"

using namespace bnm;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

std::vector<core::ExperimentConfig> full_matrix(int runs) {
  std::vector<core::ExperimentConfig> cells;
  for (const auto& who : browser::paper_cases()) {
    for (const auto kind : browser::all_probe_kinds()) {
      core::ExperimentConfig cfg;
      cfg.browser = who.browser;
      cfg.os = who.os;
      cfg.kind = kind;
      cfg.runs = runs;
      cells.push_back(cfg);
    }
  }
  return cells;
}

bool identical(const core::OverheadSeries& a, const core::OverheadSeries& b) {
  if (a.case_label != b.case_label || a.method_name != b.method_name ||
      a.failures != b.failures || a.first_error != b.first_error ||
      a.samples.size() != b.samples.size()) {
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

struct MatrixTimings {
  std::size_t cells = 0;
  int runs = 0;
  int jobs = 0;
  double serial_ms = 0;
  double parallel_ms = 0;
  bool identical = true;
  // Arena service counters over the serial + parallel passes (zero when the
  // library was built without BNM_ARENA_STATS). Every arena allocation is a
  // global-allocator round trip the packet path no longer pays.
  bool arena_stats_compiled = false;
  std::uint64_t arena_allocs_avoided = 0;
  std::uint64_t arena_bytes_served = 0;
  std::uint64_t arena_peak_bytes = 0;
  // Reference pass with arenas globally disabled: results must stay
  // bit-identical, and its wall clock shows what the arena buys.
  double arena_off_serial_ms = 0;
  bool arena_identical = true;
  // Reference pass on the binary-heap queue: the calendar queue must be a
  // pure speedup, invisible in every sample of every cell.
  double heap_serial_ms = 0;
  bool queue_identical = true;
  double speedup() const {
    return parallel_ms > 0 ? serial_ms / parallel_ms : 0.0;
  }
  /// With one worker the "parallel" run is just a second serial run, and
  /// with one visible core extra workers only timeslice it, so in either
  /// case the measured speedup is noise, not signal.
  bool parallel_meaningful() const {
    return jobs > 1 && std::thread::hardware_concurrency() > 1;
  }
};

MatrixTimings bench_matrix(int runs, int jobs_flag) {
  MatrixTimings t;
  const auto cells = full_matrix(runs);
  t.cells = cells.size();
  t.runs = runs;
  t.jobs = core::resolve_jobs(jobs_flag, cells.size());

  std::printf("matrix: %zu cells x %d runs\n", t.cells, runs);
  t.arena_stats_compiled = sim::ArenaStats::compiled_in();
  sim::ArenaStats::reset();

  std::printf("  serial (jobs=1)    ... ");
  std::fflush(stdout);
  const auto s0 = Clock::now();
  const auto serial = core::run_matrix(cells, 1);
  const auto s1 = Clock::now();
  t.serial_ms = ms_between(s0, s1);
  std::printf("%8.1f ms\n", t.serial_ms);

  std::printf("  parallel (jobs=%d)  ... ", t.jobs);
  std::fflush(stdout);
  const auto p0 = Clock::now();
  const auto parallel = core::run_matrix(cells, t.jobs);
  const auto p1 = Clock::now();
  t.parallel_ms = ms_between(p0, p1);
  std::printf("%8.1f ms   (%.2fx)%s\n", t.parallel_ms, t.speedup(),
              t.parallel_meaningful() ? "" : "  [1 core/worker: not meaningful]");

  t.arena_allocs_avoided = sim::ArenaStats::allocations();
  t.arena_bytes_served = sim::ArenaStats::bytes();
  t.arena_peak_bytes = sim::ArenaStats::peak_arena_bytes();

  // Reference pass: arenas disabled process-wide, same cells, same seeds.
  // The appraisal output must not depend on where memory came from.
  std::printf("  arena off (jobs=1) ... ");
  std::fflush(stdout);
  sim::Arena::set_enabled(false);
  const auto a0 = Clock::now();
  const auto arena_off = core::run_matrix(cells, 1);
  const auto a1 = Clock::now();
  sim::Arena::set_enabled(true);
  t.arena_off_serial_ms = ms_between(a0, a1);
  std::printf("%8.1f ms\n", t.arena_off_serial_ms);

  // Reference pass: every scheduler in the process runs the binary heap.
  std::printf("  heap queue (jobs=1) .. ");
  std::fflush(stdout);
  sim::Scheduler::set_default_impl(sim::Scheduler::QueueImpl::kHeap);
  const auto q0 = Clock::now();
  const auto heap_ref = core::run_matrix(cells, 1);
  const auto q1 = Clock::now();
  sim::Scheduler::set_default_impl(sim::Scheduler::QueueImpl::kCalendar);
  t.heap_serial_ms = ms_between(q0, q1);
  std::printf("%8.1f ms\n", t.heap_serial_ms);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!identical(serial[i], parallel[i])) {
      t.identical = false;
      std::printf("  !! cell %zu (%s %s) differs between serial and parallel\n",
                  i, serial[i].case_label.c_str(),
                  serial[i].method_name.c_str());
    }
    if (!identical(serial[i], arena_off[i])) {
      t.arena_identical = false;
      std::printf("  !! cell %zu (%s %s) differs with the arena disabled\n",
                  i, serial[i].case_label.c_str(),
                  serial[i].method_name.c_str());
    }
    if (!identical(serial[i], heap_ref[i])) {
      t.queue_identical = false;
      std::printf("  !! cell %zu (%s %s) differs between calendar and heap\n",
                  i, serial[i].case_label.c_str(),
                  serial[i].method_name.c_str());
    }
  }
  std::printf(
      "  results byte-identical: %s (arena on/off: %s, calendar/heap: %s)\n",
      t.identical ? "yes" : "NO", t.arena_identical ? "yes" : "NO",
      t.queue_identical ? "yes" : "NO");
  if (t.arena_stats_compiled) {
    std::printf("  arena: %" PRIu64 " allocs avoided, %" PRIu64
                " bytes served, peak %" PRIu64 " bytes\n",
                t.arena_allocs_avoided, t.arena_bytes_served,
                t.arena_peak_bytes);
  }
  return t;
}

// Engine overhead: the job runner (run_matrix_checked) with every feature
// disabled must cost <1% (or sub-millisecond noise) over a bare loop of
// run_experiment calls — robustness that taxes every healthy run would
// never stay on by default. The enabled pass prices what a crash-safe
// campaign actually pays: checkpointing on at flush_every = 1 (the chaos
// gate's setting), gated at <10% (or sub-ms noise).
struct CheckpointTimings {
  double baseline_ms = 0;  ///< bare run_experiment loop, serial
  double disabled_ms = 0;  ///< run_matrix_checked, all features off
  double enabled_ms = 0;   ///< checkpointing on (fflush after every cell)
  /// Overheads over baseline, each the median over rounds of the round's
  /// own difference, so a host that speeds up or slows down between
  /// rounds cancels out.
  double disabled_overhead_percent = 0;
  double disabled_delta_ms = 0;
  double enabled_overhead_percent = 0;
  double enabled_delta_ms = 0;
  bool identical = true;  ///< all three result sets bitwise equal
};

CheckpointTimings bench_checkpoint(int runs) {
  CheckpointTimings t;
  const auto cells = full_matrix(runs);
  // Medians over interleaved rounds: host speed drifts and jumps (VM
  // steal), so each round times all three variants back to back and the
  // medians ignore the rare rounds that ran on a fast or slow host. A
  // best-of would pick exactly those outliers.
  constexpr int kRounds = 40;
  std::printf("checkpoint overhead: %zu cells x %d runs, median of %d "
              "interleaved rounds\n",
              cells.size(), runs, kRounds);

  const char* ck_path = "BENCH_checkpoint_scratch.json";
  std::vector<core::OverheadSeries> baseline;
  core::MatrixResult disabled;
  core::MatrixResult enabled;
  core::MatrixOptions disabled_opts;
  disabled_opts.jobs = 1;
  core::MatrixOptions enabled_opts = disabled_opts;
  enabled_opts.checkpoint.path = ck_path;
  enabled_opts.checkpoint.flush_every = 1;
  const auto timed = [](auto&& pass) {
    const auto t0 = Clock::now();
    pass();
    return ms_between(t0, Clock::now());
  };
  // The baseline is the engine with the engine taken out: one arena on the
  // calling thread, rewound after every cell, as the runner does it.
  const auto bare_loop = [&cells] {
    std::vector<core::OverheadSeries> out;
    out.reserve(cells.size());
    sim::Arena arena;
    sim::ArenaScope scope{&arena};
    for (const core::ExperimentConfig& cell : cells) {
      out.push_back(core::run_experiment(cell));
      arena.reset();
    }
    return out;
  };
  std::vector<double> baseline_ms, disabled_ms, enabled_ms;
  for (int round = 0; round < kRounds; ++round) {
    baseline_ms.push_back(timed([&] { baseline = bare_loop(); }));
    disabled_ms.push_back(timed(
        [&] { disabled = core::run_matrix_checked(cells, disabled_opts); }));
    std::remove(ck_path);
    enabled_ms.push_back(timed(
        [&] { enabled = core::run_matrix_checked(cells, enabled_opts); }));
  }
  std::remove(ck_path);
  const auto median = [](std::vector<double> v) {
    std::sort(v.begin(), v.end());
    return (v[(v.size() - 1) / 2] + v[v.size() / 2]) / 2;
  };
  const auto paired = [&](const std::vector<double>& variant,
                          double* percent, double* delta_ms) {
    std::vector<double> pct, delta;
    for (int r = 0; r < kRounds; ++r) {
      delta.push_back(variant[r] - baseline_ms[r]);
      pct.push_back(delta.back() / baseline_ms[r] * 100.0);
    }
    *percent = median(pct);
    *delta_ms = median(delta);
  };
  t.baseline_ms = median(baseline_ms);
  t.disabled_ms = median(disabled_ms);
  t.enabled_ms = median(enabled_ms);
  paired(disabled_ms, &t.disabled_overhead_percent, &t.disabled_delta_ms);
  paired(enabled_ms, &t.enabled_overhead_percent, &t.enabled_delta_ms);
  std::printf("  bare cell loop     ... %8.1f ms\n", t.baseline_ms);
  std::printf("  engine, all off    ... %8.1f ms   (%+.2f%%, %+.2f ms)\n",
              t.disabled_ms, t.disabled_overhead_percent,
              t.disabled_delta_ms);
  std::printf("  checkpointing on   ... %8.1f ms   (%+.2f%%, %+.2f ms)\n",
              t.enabled_ms, t.enabled_overhead_percent, t.enabled_delta_ms);

  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (!identical(baseline[i], disabled.series[i]) ||
        !identical(baseline[i], enabled.series[i])) {
      t.identical = false;
      std::printf("  !! cell %zu (%s %s) differs under the checked engine\n",
                  i, baseline[i].case_label.c_str(),
                  baseline[i].method_name.c_str());
    }
  }
  std::printf("  results byte-identical across all three passes: %s\n",
              t.identical ? "yes" : "NO");
  return t;
}

struct CaptureTimings {
  std::size_t records = 0;
  std::size_t windows = 0;
  double linear_ms = 0;
  double indexed_ms = 0;
  double speedup() const {
    return indexed_ms > 0 ? linear_ms / indexed_ms : 0.0;
  }
};

CaptureTimings bench_capture_scan() {
  CaptureTimings t;
  constexpr std::size_t kRecords = 40000;
  constexpr std::size_t kWindows = 4000;
  t.records = kRecords;
  t.windows = kWindows;

  // Populate a capture the way an experiment does: records appended as the
  // simulation clock advances, one per simulated millisecond.
  sim::Simulation sim;
  net::PacketCapture capture{sim};
  for (std::size_t i = 0; i < kRecords; ++i) {
    sim.scheduler().post_at(
        sim::TimePoint::epoch() + sim::Duration::millis(static_cast<double>(i)),
        [&capture, i] {
          net::Packet p;
          p.id = i;
          p.payload = std::vector<std::uint8_t>{0x42};
          capture.record(i % 2 ? net::CaptureDirection::kInbound
                               : net::CaptureDirection::kOutbound,
                         p);
        });
  }
  sim.scheduler().run();

  // Late windows are the worst case for the linear scan (an experiment's
  // run N re-scans all records of runs 1..N-1).
  std::vector<sim::TimePoint> starts;
  starts.reserve(kWindows);
  for (std::size_t w = 0; w < kWindows; ++w) {
    const double at_ms =
        static_cast<double>(kRecords) * 0.5 +
        static_cast<double>(w % (kRecords / 2));
    starts.push_back(sim::TimePoint::epoch() + sim::Duration::millis(at_ms));
  }

  std::size_t sum_linear = 0, sum_indexed = 0;
  const auto l0 = Clock::now();
  for (const auto from : starts) {
    std::size_t i = 0;
    while (i < capture.size() && capture.true_time(i) < from) ++i;
    sum_linear += i;
  }
  const auto l1 = Clock::now();
  t.linear_ms = ms_between(l0, l1);

  const auto b0 = Clock::now();
  for (const auto from : starts) {
    sum_indexed += capture.first_index_at_or_after(from);
  }
  const auto b1 = Clock::now();
  t.indexed_ms = ms_between(b0, b1);

  std::printf("capture scan: %zu records, %zu window lookups\n", t.records,
              t.windows);
  std::printf("  linear scan        ... %8.2f ms\n", t.linear_ms);
  std::printf("  binary search      ... %8.2f ms   (%.0fx)\n", t.indexed_ms,
              t.speedup());
  if (sum_linear != sum_indexed) {
    std::printf("  !! index mismatch: linear=%zu indexed=%zu\n", sum_linear,
                sum_indexed);
    t.indexed_ms = -1;  // poison: the JSON shows something went wrong
  }
  return t;
}

struct SchedulerTimings {
  std::size_t events = 0;
  double handle_ns_per_event = 0;
  double post_ns_per_event = 0;
  std::size_t pooled_blocks = 0;
  // Calendar-vs-heap sub-bench: identical spread workload on both queues.
  double calendar_ns_per_event = 0;
  double heap_ns_per_event = 0;
  // Batched-vs-stepwise sub-bench: same calendar queue, run() (whole-bucket
  // batches) vs a step() loop (one event per queue touch).
  double batched_ns_per_event = 0;
  double stepwise_ns_per_event = 0;
  double queue_speedup() const {
    return calendar_ns_per_event > 0
               ? heap_ns_per_event / calendar_ns_per_event
               : 0.0;
  }
  double batch_speedup() const {
    return batched_ns_per_event > 0
               ? stepwise_ns_per_event / batched_ns_per_event
               : 0.0;
  }
  /// Headline throughput: the cancellable schedule_after path (the one the
  /// experiment pipeline leans on; 238.9 ns/event on the PR-5 heap).
  double events_per_sec() const {
    return handle_ns_per_event > 0 ? 1e9 / handle_ns_per_event : 0.0;
  }
};

SchedulerTimings bench_scheduler() {
  SchedulerTimings t;
  constexpr std::size_t kEvents = 200000;
  constexpr std::size_t kBatch = 1000;  // queue depth per drain cycle
  constexpr int kPasses = 3;            // best-of, to shrug off host jitter
  t.events = kEvents;

  volatile std::uint64_t sink = 0;

  // Every section reports the minimum of kPasses passes: at ~100 ns/event a
  // single pass is at the mercy of VM steal time, and the events/sec floor
  // gate needs the machine's speed, not the hypervisor's mood.
  const auto best_of = [](auto&& pass) {
    double best = pass();  // first pass doubles as warm-up
    for (int i = 0; i < kPasses; ++i) best = std::min(best, pass());
    return best;
  };

  // Cancellable path: every event carries a pooled control block; steady
  // state is allocation-free (tests/test_kernel_alloc.cpp).
  t.handle_ns_per_event = best_of([&] {
    sim::Scheduler sched;
    const auto h0 = Clock::now();
    for (std::size_t done = 0; done < kEvents; done += kBatch) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        sched.schedule_after(sim::Duration::millis(1),
                             [&sink] { sink = sink + 1; });
      }
      sched.run();
    }
    const auto h1 = Clock::now();
    t.pooled_blocks = sched.pooled_control_blocks();
    return ms_between(h0, h1) * 1e6 / kEvents;
  });

  // Fire-and-forget path: no control blocks at all.
  t.post_ns_per_event = best_of([&] {
    sim::Scheduler sched;
    const auto p0 = Clock::now();
    for (std::size_t done = 0; done < kEvents; done += kBatch) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        sched.post_after(sim::Duration::millis(1),
                         [&sink] { sink = sink + 1; });
      }
      sched.run();
    }
    const auto p1 = Clock::now();
    return ms_between(p0, p1) * 1e6 / kEvents;
  });

  // Calendar vs heap, batched vs stepwise: the same spread workload (1000
  // events across ~1 ms, i.e. ~16 calendar buckets per drain cycle) so the
  // calendar actually pays its promotion/sort costs.
  const auto drive = [&sink](sim::Scheduler::QueueImpl impl, bool batched) {
    sim::Scheduler sched{impl};
    const auto t0 = Clock::now();
    for (std::size_t done = 0; done < kEvents; done += kBatch) {
      for (std::size_t i = 0; i < kBatch; ++i) {
        sched.post_after(sim::Duration::micros(static_cast<std::int64_t>(i)),
                         [&sink] { sink = sink + 1; });
      }
      if (batched) {
        sched.run();
      } else {
        while (sched.step()) {
        }
      }
    }
    return ms_between(t0, Clock::now()) * 1e6 / kEvents;
  };
  t.calendar_ns_per_event =
      best_of([&] { return drive(sim::Scheduler::QueueImpl::kCalendar, true); });
  t.heap_ns_per_event =
      best_of([&] { return drive(sim::Scheduler::QueueImpl::kHeap, true); });
  t.batched_ns_per_event = t.calendar_ns_per_event;
  t.stepwise_ns_per_event = best_of(
      [&] { return drive(sim::Scheduler::QueueImpl::kCalendar, false); });

  std::printf("scheduler: %zu events, batches of %zu\n", t.events, kBatch);
  std::printf("  schedule_after     ... %8.1f ns/event  (%zu pooled blocks, "
              "%.2fM events/s)\n",
              t.handle_ns_per_event, t.pooled_blocks,
              t.events_per_sec() / 1e6);
  std::printf("  post_after         ... %8.1f ns/event\n",
              t.post_ns_per_event);
  std::printf("  calendar (batched) ... %8.1f ns/event\n",
              t.calendar_ns_per_event);
  std::printf("  heap reference     ... %8.1f ns/event   (calendar %.2fx)\n",
              t.heap_ns_per_event, t.queue_speedup());
  std::printf("  stepwise dispatch  ... %8.1f ns/event   (batched %.2fx)\n",
              t.stepwise_ns_per_event, t.batch_speedup());
  return t;
}

// One small profiled matrix pass: enable the obs profiling scopes, run a
// few cells, and surface where the wall-clock goes. Informational only
// (wall-clock, so never part of a determinism gate).
std::vector<obs::prof::ProfEntry> bench_profile(int runs) {
  std::vector<core::ExperimentConfig> cells;
  for (const auto kind : browser::all_probe_kinds()) {
    cells.push_back(benchutil::make_config(browser::BrowserId::kChrome,
                                           browser::OsId::kUbuntu, kind,
                                           std::max(1, runs / 4)));
  }
  obs::prof::reset();
  obs::prof::set_enabled(true);
  core::run_matrix(cells, 1);
  obs::prof::set_enabled(false);
  auto entries = obs::prof::report();
  obs::prof::reset();

  std::printf("profile (profiling scopes enabled, %zu cells):\n",
              cells.size());
  std::printf("%s", obs::prof::format_report(entries).c_str());
  return entries;
}

benchutil::Json to_json(unsigned hw, const MatrixTimings& m,
                        const CheckpointTimings& k, const CaptureTimings& c,
                        const SchedulerTimings& s,
                        const std::vector<obs::prof::ProfEntry>& profile) {
  using namespace benchutil;
  Json matrix = obj({
      {"cells", integer(m.cells)},
      {"runs_per_cell", integer(m.runs)},
      {"jobs", integer(m.jobs)},
      {"serial_ms", num(m.serial_ms)},
      {"parallel_ms", num(m.parallel_ms)},
      {"speedup", num(m.speedup())},
      {"parallel_meaningful", flag(m.parallel_meaningful())},
  });
  if (!m.parallel_meaningful()) {
    // Explicit note so a ~1.0x "speedup" on a single-core host (or jobs=1)
    // is read as a timeslicing artifact, not a parallelization regression.
    matrix.add("parallel_note",
               Json::string(hw <= 1 ? "single visible core: parallel pass "
                                      "only timeslices the serial work"
                                    : "jobs=1: parallel pass is a second "
                                      "serial run"));
  }
  matrix.add("identical", flag(m.identical));
  matrix.add("arena", obj({
                          {"stats_compiled", flag(m.arena_stats_compiled)},
                          {"allocs_avoided", integer(m.arena_allocs_avoided)},
                          {"bytes_served", integer(m.arena_bytes_served)},
                          {"peak_arena_bytes", integer(m.arena_peak_bytes)},
                          {"off_serial_ms", num(m.arena_off_serial_ms)},
                          {"identical_on_off", flag(m.arena_identical)},
                      }));
  matrix.add("queue", obj({
                          {"heap_serial_ms", num(m.heap_serial_ms)},
                          {"identical_calendar_heap", flag(m.queue_identical)},
                      }));
  Json sites = Json::array();
  for (const auto& e : profile) {
    sites.push(obj({
        {"site", Json::string(e.name)},
        {"calls", integer(e.calls)},
        {"total_ms", num(static_cast<double>(e.total_ns) / 1e6)},
        {"avg_us", num(e.calls ? static_cast<double>(e.total_ns) / 1e3 /
                                     static_cast<double>(e.calls)
                               : 0.0)},
        {"max_us", num(static_cast<double>(e.max_ns) / 1e3)},
    }));
  }
  return obj({
      {"hardware_concurrency", integer(hw)},
      {"matrix", matrix},
      {"checkpoint",
       obj({
           {"baseline_ms", num(k.baseline_ms)},
           {"disabled_ms", num(k.disabled_ms)},
           {"enabled_ms", num(k.enabled_ms)},
           {"disabled_overhead_percent", num(k.disabled_overhead_percent)},
           {"disabled_delta_ms", num(k.disabled_delta_ms)},
           {"enabled_overhead_percent", num(k.enabled_overhead_percent)},
           {"enabled_delta_ms", num(k.enabled_delta_ms)},
           {"identical", flag(k.identical)},
       })},
      {"capture_scan", obj({
                           {"records", integer(c.records)},
                           {"window_lookups", integer(c.windows)},
                           {"linear_ms", num(c.linear_ms)},
                           {"indexed_ms", num(c.indexed_ms)},
                           {"speedup", num(c.speedup())},
                       })},
      {"scheduler",
       obj({
           {"events", integer(s.events)},
           {"schedule_ns_per_event", num(s.handle_ns_per_event)},
           {"post_ns_per_event", num(s.post_ns_per_event)},
           {"events_per_sec", num(s.events_per_sec())},
           {"calendar_ns_per_event", num(s.calendar_ns_per_event)},
           {"heap_ns_per_event", num(s.heap_ns_per_event)},
           {"queue_speedup", num(s.queue_speedup())},
           {"batched_ns_per_event", num(s.batched_ns_per_event)},
           {"stepwise_ns_per_event", num(s.stepwise_ns_per_event)},
           {"batch_speedup", num(s.batch_speedup())},
           {"pooled_control_blocks", integer(s.pooled_blocks)},
       })},
      {"profile", sites},
  });
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::options().runs = 12;  // perf default; --runs=N overrides
  const auto& opts = benchutil::init(argc, argv);

  const unsigned hw = std::thread::hardware_concurrency();
  benchutil::banner("perf_matrix: experiment pipeline performance");
  std::printf("hardware_concurrency: %u\n\n", hw);

  const MatrixTimings m = bench_matrix(opts.runs, opts.jobs);
  std::printf("\n");
  const CheckpointTimings k = bench_checkpoint(opts.runs);
  std::printf("\n");
  const CaptureTimings c = bench_capture_scan();
  std::printf("\n");
  const SchedulerTimings s = bench_scheduler();
  std::printf("\n");
  const auto profile = bench_profile(opts.runs);

  if (!m.parallel_meaningful() || hw < 4) {
    std::printf("note: only %u core(s) visible (jobs=%d) - speedup is not "
                "meaningful on this host (expect >=3x at jobs=4 on 4+ "
                "cores)\n", hw, m.jobs);
  } else {
    benchutil::shape_check(m.speedup() >= 3.0 || m.jobs < 4,
                           "parallel full matrix >=3x over serial at jobs>=4");
  }
  using benchutil::at_least, benchutil::below, benchutil::either,
      benchutil::is_true;
  return benchutil::write_result(
      "BENCH_perf_matrix.json", to_json(hw, m, k, c, s, profile),
      {
          is_true("matrix.identical"),
          is_true("matrix.arena.identical_on_off"),
          is_true("matrix.queue.identical_calendar_heap"),
          is_true("checkpoint.identical"),
          // The bare-loop baseline is only ~30-60 ms, so percentages of it
          // sit inside VM jitter: a sub-millisecond delta passes too.
          either(below("checkpoint.disabled_overhead_percent", 1.0),
                 below("checkpoint.disabled_delta_ms", 1.0)),
          either(below("checkpoint.enabled_overhead_percent", 10.0),
                 below("checkpoint.enabled_delta_ms", 1.0)),
          // The binary heap managed ~4.2M events/s; the calendar queue
          // should stay comfortably above 3x that on any host.
          at_least("scheduler.events_per_sec", 12e6),
      });
}

// End-to-end benchmark: four fixed-work, closed-loop workloads with
// golden-checked outputs, and an outside-in per-layer ledger.
//
//   e2e_bench --workload NAME [--seed N] [--trace 0|1] [--jobs N]
//             [--golden PATH] [--out PATH] [--scratch DIR] [--git-sha SHA]
//             [--smoke]
//
// Workloads, each a sequence of passes (bench/e2e/README.md gives the
// rationale for each):
//   paper_matrix         pass p: the Fig. 3 matrix (88 cells x 50 reps) at
//                        seed + p through run_matrix_checked, then
//                        matrix_report_json
//   matrix_crashsafe     the same passes with checkpoint.flush_every = 1
//   campaign_population  one run_campaign (CampaignSpec defaults, 600k
//                        clients in 1024 shards), then campaign_report_json;
//                        its shards are cut into 16 blocks that stand in
//                        for passes
//   passive_offline      pass: 32 in-memory pcaps of simulated testbeds
//                        through PcapReader::read -> consume -> report_json
//
// Work is a fixed number of passes, never set by the clock, so two commits
// always do the same work. The seed fixes the inputs.
// End-to-end metrics come from untraced runs; --trace 1 runs the same work
// with obs::prof on and bench-side spans kept in memory, and reports the
// per-layer metrics instead. The last stdout line is one JSON object:
// {"correct", "attempted", "failed", "metrics"}.
#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <istream>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "core/campaign.h"
#include "core/checkpoint.h"
#include "core/parallel_runner.h"
#include "core/testbed.h"
#include "ledger.h"
#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
#include "obs/json.h"
#include "obs/prof.h"
#include "passive/rtt_estimator.h"
#include "sim/arena.h"
#include "sim/trace.h"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif

using namespace bnm;
using e2e::now_ns;
using e2e::ratio;
using e2e::SpanLog;
using e2e::SpanTree;
using obs::json::Value;

namespace {

constexpr std::uint64_t kDefaultSeed = 42;
/// Set-up (inputs + two warm-up passes or shards) runs this many times per
/// process and setup_s is the median: a single set-up of paper_matrix lasts
/// ~0.1 s, short enough for one descheduling to move it by a quarter.
constexpr int kSetupRepeats = 3;
constexpr int kWarmups = 2;

// The fixed work, sized so each timed region takes 12-25 s on a 4-core x86
// host at jobs=4. Changing one changes every number and the golden digests.
constexpr int kMatrixPasses = 400;
constexpr int kCrashsafePasses = 24;
constexpr std::uint64_t kCampaignClients = 600000;
constexpr int kCampaignShards = 1024;
constexpr int kCampaignBlocks = 16;
constexpr int kPassiveTestbeds = 32;
constexpr int kPassiveConns = 16;
constexpr int kPassiveExchanges = 200;
constexpr int kPassivePasses = 40;

struct Options {
  std::string workload;
  std::uint64_t seed = kDefaultSeed;
  bool trace = false;
  int jobs = 0;
  bool smoke = false;
  std::string golden;
  std::string out;
  std::string scratch = "build-bench/tmp";
  std::string git_sha = "unknown";
};

/// One pass of a workload's timed work.
struct Pass {
  double seconds = 0;           ///< wall time of the pass
  double units = 0;             ///< cells / clients / packets completed
  std::vector<double> unit_ms;  ///< per-unit latencies (cell/shard/capture)
};

/// Everything a workload hands back for the result.
struct Outcome {
  const char* unit = "";             ///< what one latency sample times
  const char* throughput_unit = "";  ///< e.g. "cells/s"
  bool one_cpu_passes = false;       ///< each pass runs on a single CPU
  std::vector<Pass> passes;
  std::vector<double> setup_s;       ///< one per set-up repetition
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  e2e::Fnv1a digest;
  std::vector<std::string> errors;
  std::map<std::string, double> layers;  ///< --trace 1 only

  void error(std::string what) {
    std::fprintf(stderr, "e2e_bench: %s\n", what.c_str());
    errors.push_back(std::move(what));
  }
};

double seconds_since(std::int64_t t0_ns) {
  return static_cast<double>(now_ns() - t0_ns) / 1e9;
}

template <typename F>
void repeat_setup(Outcome& out, F&& setup) {
  for (int i = 0; i < kSetupRepeats; ++i) {
    const std::int64_t t0 = now_ns();
    setup();
    out.setup_s.push_back(seconds_since(t0));
  }
}

/// Switch obs::prof on for the traced region and read it back afterwards.
struct ProfRegion {
  explicit ProfRegion(bool on) : on_{on} {
    if (!on_) return;
    obs::prof::reset();
    obs::prof::set_enabled(true);
  }
  std::map<std::string, double> stop() {
    if (!on_) return {};
    obs::prof::set_enabled(false);
    return e2e::prof_totals_ns();
  }
  bool on_;
};

/// Layer metrics every simulator-driven workload shares: per-repetition
/// counts from the registry and inclusive prof shares of the pool's
/// capacity (`parallel_ns` = jobs x engine wall time).
void simulation_layers(std::map<std::string, double>& cd,
                       std::map<std::string, double>& prof,
                       double parallel_ns, double experiments, Outcome& out) {
  const double reps = cd["experiment.runs"];
  const double events = cd["scheduler.events"];
  auto& l = out.layers;
  l["sim.events_per_rep"] = ratio(events, reps);
  l["sim.overflow_pulls_per_event"] = ratio(cd["scheduler.overflow_pulls"], events);
  l["sim.bucket_promotions_per_event"] =
      ratio(cd["scheduler.bucket_promotions"], events);
  l["sim.arena_allocs_per_rep"] = ratio(cd["arena.allocations"], reps);
  l["sim.dispatch_share"] = ratio(prof["scheduler.dispatch"], parallel_ns);
  l["net.deep_copy_bytes_per_rep"] = ratio(cd["payload.deep_copy_bytes"], reps);
  l["net.buffers_per_rep"] = ratio(cd["payload.buffers_allocated"], reps);
  l["net.tcp_segmentation_share"] = ratio(prof["tcp.segmentation"], parallel_ns);
  l["http.connections_per_rep"] = ratio(cd["http.connections_opened"], reps);
  l["http.retries_per_client"] = ratio(cd["http.request_retries"], experiments);
  l["http.timeouts_per_client"] = ratio(cd["http.request_timeouts"], experiments);
  l["methods.stamp_share"] = ratio(prof["method.stamp"], parallel_ns);
  l["core.repetition_share"] = ratio(prof["experiment.repetition"], parallel_ns);
  l["core.window_scan_share"] =
      ratio(prof["experiment.window_scan"], parallel_ns);
  l["core.sample_yield"] = ratio(cd["experiment.samples"], reps);
}

// ---------------------------------------------------------------------------
// paper_matrix / matrix_crashsafe

std::vector<core::ExperimentConfig> matrix_cells(std::uint64_t seed, int runs) {
  std::vector<core::ExperimentConfig> cells;
  for (const auto& who : browser::paper_cases()) {
    for (const auto kind : browser::all_probe_kinds()) {
      core::ExperimentConfig cfg;
      cfg.browser = who.browser;
      cfg.os = who.os;
      cfg.kind = kind;
      cfg.runs = runs;
      cfg.seed = seed;
      cells.push_back(cfg);
    }
  }
  return cells;
}

/// One cell as seen from outside the engine: runner entry, runner return,
/// and the cell's progress callback, all on the worker that ran it.
struct CellTiming {
  std::int64_t entry = 0;
  std::int64_t ret = 0;
  std::int64_t done = 0;
  int thread = 0;
};

thread_local std::int64_t t_runner_entry = 0;
thread_local std::int64_t t_runner_return = 0;

struct MatrixPass {
  core::MatrixResult result;
  std::string report;
  std::vector<CellTiming> cells;
  std::int64_t t0 = 0;  ///< run_matrix_checked called
  std::int64_t t1 = 0;  ///< engine returned, report starts
  std::int64_t t2 = 0;  ///< report done
};

MatrixPass run_matrix_pass(const std::vector<core::ExperimentConfig>& cells,
                           const core::MatrixOptions& base) {
  MatrixPass pass;
  pass.cells.reserve(cells.size());
  core::MatrixOptions options = base;
  // The engine calls progress on the worker that ran the cell, under its
  // own lock, right after persisting it.
  options.progress = [&pass](std::size_t, std::size_t) {
    pass.cells.push_back(
        {t_runner_entry, t_runner_return, now_ns(), e2e::thread_index()});
  };
  const core::WatchedCellRunner runner = [](const core::ExperimentConfig& c,
                                            core::CellWatchdog* w) {
    t_runner_entry = now_ns();
    core::OverheadSeries s = core::run_experiment_watched(c, w);
    t_runner_return = now_ns();
    return s;
  };
  pass.t0 = now_ns();
  pass.result = core::run_matrix_checked(cells, options, runner);
  pass.t1 = now_ns();
  pass.report = core::matrix_report_json(cells, pass.result.series);
  pass.t2 = now_ns();
  return pass;
}

void check_matrix_pass(const MatrixPass& pass, std::size_t cells, int runs,
                       int p, Outcome& out) {
  const core::MatrixResult& r = pass.result;
  out.attempted += cells;
  out.failed += r.quarantined.size();
  if (!r.ok() || r.series.size() != cells || pass.cells.size() != cells) {
    out.error("pass " + std::to_string(p) + ": " +
              std::to_string(r.quarantined.size()) + " cells quarantined, " +
              std::to_string(pass.cells.size()) + " of " +
              std::to_string(cells) + " cells reported");
    return;
  }
  for (const core::OverheadSeries& s : r.series) {
    if (static_cast<int>(s.samples.size()) + s.failures != runs) {
      out.error("pass " + std::to_string(p) + ": " + s.case_label + " " +
                s.method_name + " accounts for " +
                std::to_string(s.samples.size()) + "+" +
                std::to_string(s.failures) + " of " + std::to_string(runs) +
                " repetitions");
      return;
    }
  }
}

/// Read a pass's checkpoint back and compare every cell with the engine's
/// in-memory result. Returns the file's size in bytes.
std::uintmax_t check_checkpoint(const std::string& path,
                                const std::vector<core::ExperimentConfig>& cells,
                                const core::MatrixResult& r, int p,
                                Outcome& out) {
  std::string why;
  const std::optional<core::CheckpointReader> reader =
      core::CheckpointReader::load(path, &why);
  const std::string where = "pass " + std::to_string(p) + " checkpoint: ";
  if (!reader) {
    out.error(where + why);
    return 0;
  }
  if (reader->records() != cells.size()) {
    out.error(where + std::to_string(reader->records()) + " records for " +
              std::to_string(cells.size()) + " cells");
  }
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const core::OverheadSeries* stored = reader->lookup(i, cells[i]);
    if (stored == nullptr || core::series_to_json(*stored).dump() !=
                                 core::series_to_json(r.series[i]).dump()) {
      out.error(where + "cell " + std::to_string(i) + " differs");
      break;
    }
  }
  std::error_code ec;
  const std::uintmax_t bytes = std::filesystem::file_size(path, ec);
  return ec ? 0 : bytes;
}

void record_matrix_spans(SpanLog& log, const MatrixPass& pass) {
  const std::size_t root = log.add("pass", SpanLog::kRoot, pass.t0, pass.t2, 0);
  const std::size_t engine = log.add("engine", root, pass.t0, pass.t1, 0);
  for (const CellTiming& c : pass.cells) {
    log.add("experiment", engine, c.entry, c.ret, c.thread);
    log.add("persist", engine, c.ret, c.done, c.thread);
  }
  log.add("report", root, pass.t1, pass.t2, 0);
}

void run_matrix_workload(const Options& opt, bool crashsafe, SpanLog* spans,
                         Outcome& out) {
  const int runs = opt.smoke ? 4 : 50;
  const int passes =
      opt.smoke ? 2 : (crashsafe ? kCrashsafePasses : kMatrixPasses);
  const std::string ck_path =
      opt.scratch + "/checkpoint-" + std::to_string(getpid()) + ".json";
  core::MatrixOptions base;
  base.jobs = opt.jobs;
  if (crashsafe) {
    base.checkpoint.path = ck_path;
    base.checkpoint.flush_every = 1;  // the chaos gate's setting
  }
  const auto fresh_checkpoint = [&] {
    std::filesystem::remove(ck_path);
    std::filesystem::remove(ck_path + ".tmp");
  };
  out.unit = "cell";
  out.throughput_unit = "cells/s";

  repeat_setup(out, [&] {
    for (int w = 0; w < kWarmups; ++w) {
      fresh_checkpoint();
      run_matrix_pass(matrix_cells(opt.seed + w, runs), base);
    }
  });

  // Traced runs first time the leading quarter of the passes untraced, so
  // the tracing overhead compares identical work.
  const int ref_passes = opt.trace ? std::max(1, passes / 4) : 0;
  double ref_s = 0;
  for (int p = 0; p < ref_passes; ++p) {
    fresh_checkpoint();
    const MatrixPass pass =
        run_matrix_pass(matrix_cells(opt.seed + p, runs), base);
    ref_s += static_cast<double>(pass.t2 - pass.t0) / 1e9;
  }

  ProfRegion prof_region{opt.trace};
  e2e::CounterDelta counters;
  std::string first_report_digest;
  double traced_ref_s = 0;
  double checkpoint_file_bytes = 0;
  std::vector<double> experiment_ms, persist_ms;
  double busy_ns = 0, engine_ns = 0;
  for (int p = 0; p < passes; ++p) {
    const std::vector<core::ExperimentConfig> cells =
        matrix_cells(opt.seed + p, runs);
    fresh_checkpoint();
    MatrixPass pass = run_matrix_pass(cells, base);
    Pass& timed = out.passes.emplace_back();
    timed.seconds = static_cast<double>(pass.t2 - pass.t0) / 1e9;
    timed.units = static_cast<double>(cells.size());
    if (p < ref_passes) traced_ref_s += timed.seconds;
    engine_ns += static_cast<double>(pass.t1 - pass.t0);
    for (const CellTiming& c : pass.cells) {
      timed.unit_ms.push_back(static_cast<double>(c.done - c.entry) / 1e6);
      experiment_ms.push_back(static_cast<double>(c.ret - c.entry) / 1e6);
      persist_ms.push_back(static_cast<double>(c.done - c.ret) / 1e6);
      busy_ns += static_cast<double>(c.done - c.entry);
    }
    out.digest.update(pass.report);
    if (p == 0) first_report_digest = e2e::fnv1a_hex(pass.report);
    check_matrix_pass(pass, cells.size(), runs, p, out);
    if (crashsafe) {
      checkpoint_file_bytes += static_cast<double>(
          check_checkpoint(ck_path, cells, pass.result, p, out));
    }
    if (spans) record_matrix_spans(*spans, pass);
  }
  std::map<std::string, double> prof = prof_region.stop();
  std::map<std::string, double> cd = counters.delta();
  fresh_checkpoint();

  // Determinism: the first pass again, serial and without persistence,
  // must reproduce the timed pass's report byte for byte.
  core::MatrixOptions serial_options;
  serial_options.jobs = 1;
  const MatrixPass serial =
      run_matrix_pass(matrix_cells(opt.seed, runs), serial_options);
  if (e2e::fnv1a_hex(serial.report) != first_report_digest) {
    out.error("pass 0 rerun at jobs=1 without checkpointing differs");
  }

  if (!spans) return;
  const SpanTree tree{spans->spans()};
  const double parallel_ns = opt.jobs * engine_ns;
  simulation_layers(cd, prof, parallel_ns, out.attempted, out);
  auto& l = out.layers;
  l["core.experiment_ms_p50"] = e2e::quantile(experiment_ms, 0.50);
  l["core.experiment_ms_p99"] = e2e::quantile(experiment_ms, 0.99);
  l["core.persist_ms_p50"] = e2e::quantile(persist_ms, 0.50);
  l["core.persist_ms_p99"] = e2e::quantile(persist_ms, 0.99);
  l["core.engine_self_ms"] =
      static_cast<double>(tree.self_ns("engine")) / 1e6 / passes;
  l["core.pool_busy_share"] = ratio(busy_ns, parallel_ns);
  l["core.report_ms"] = static_cast<double>(tree.total_ns("report")) / 1e6 / passes;
  l["core.checkpoint_bytes_per_cell"] =
      ratio(cd["checkpoint.bytes_written"], cd["checkpoint.cells_written"]);
  l["core.checkpoint_useful_ratio"] =
      ratio(checkpoint_file_bytes, cd["checkpoint.bytes_written"]);
  l["core.checkpoint_flush_share"] = ratio(prof["checkpoint.flush"], parallel_ns);
  l["obs.trace_overhead_share"] = ratio(traced_ref_s, ref_s);
}

// ---------------------------------------------------------------------------
// campaign_population

struct ShardSpan {
  std::int64_t t0 = 0, t1 = 0;
  std::uint64_t clients = 0, samples = 0, failed = 0;
};

/// The engine's per-shard spans ("campaign"/"shard" records, times relative
/// to the engine's own start), placed on the bench clock at `origin_ns`.
std::map<std::size_t, ShardSpan> shard_spans(const sim::Trace& trace,
                                             std::int64_t origin_ns) {
  std::map<std::size_t, ShardSpan> out;
  const auto attr = [](const sim::TraceRecord& r, const char* key) {
    const sim::TraceAttr* a = r.attr(key);
    return a ? static_cast<std::uint64_t>(std::get<std::int64_t>(a->value)) : 0;
  };
  for (const sim::TraceRecord& r : trace.view_by_component("campaign")) {
    ShardSpan s;
    s.t0 = origin_ns + r.at.ns_since_epoch();
    s.t1 = s.t0 + r.duration.ns();
    s.clients = attr(r, "clients");
    s.samples = attr(r, "samples");
    s.failed = attr(r, "failed_clients");
    out[attr(r, "shard")] = s;
  }
  return out;
}

/// Shard k's client range, as the engine deals contiguous ranges.
std::pair<std::uint64_t, std::uint64_t> shard_range(std::uint64_t clients,
                                                    std::size_t shards,
                                                    std::size_t k) {
  return {clients * k / shards, clients * (k + 1) / shards};
}

/// Re-run one shard's clients outside the engine through the public
/// pieces (sampler -> run_experiment -> fold), optionally spanning each
/// step.
core::CampaignAggregate replay_shard(const core::CampaignSpec& spec,
                                     const core::CampaignSampler& sampler,
                                     std::size_t shards, std::size_t k,
                                     SpanLog* spans, std::size_t parent) {
  core::CampaignAggregate agg{spec.grid, sampler.profile_count()};
  sim::Arena arena;
  sim::ArenaScope scope{&arena};
  const int thread = e2e::thread_index();
  const auto [first, last] = shard_range(spec.clients, shards, k);
  for (std::uint64_t client = first; client < last; ++client) {
    std::size_t profile = 0;
    const std::int64_t t0 = now_ns();
    core::ExperimentConfig cfg = sampler.client_config(client, &profile);
    const std::int64_t t1 = now_ns();
    try {
      const core::OverheadSeries series = core::run_experiment(std::move(cfg));
      const std::int64_t t2 = now_ns();
      agg.fold(series, profile, spec.min_rtt_window);
      if (spans) {
        spans->add("sampler", parent, t0, t1, thread);
        spans->add("client_experiment", parent, t1, t2, thread);
        spans->add("fold", parent, t2, now_ns(), thread);
      }
    } catch (const std::exception&) {
      ++agg.failed_clients;
    }
    arena.reset();
  }
  return agg;
}

void check_replay(const core::CampaignAggregate& agg, const ShardSpan* engine,
                  std::size_t k, Outcome& out) {
  if (engine == nullptr || agg.clients != engine->clients ||
      agg.samples != engine->samples || agg.failed_clients != engine->failed) {
    out.error("shard " + std::to_string(k) +
              " replayed outside the engine differs from the engine's result");
  }
}

struct CampaignPass {
  core::CampaignResult result;
  std::string report;
  std::map<std::size_t, ShardSpan> shards;
  std::int64_t t0 = 0;  ///< run_campaign called
  std::int64_t t1 = 0;  ///< engine returned, report starts
  std::int64_t t2 = 0;  ///< report done
};

CampaignPass run_campaign_pass(const core::CampaignSpec& spec,
                               const core::CampaignOptions& base) {
  CampaignPass pass;
  sim::Trace shard_trace;
  shard_trace.set_enabled(true);
  core::CampaignOptions options = base;
  options.trace = &shard_trace;
  pass.t0 = now_ns();
  pass.result = core::run_campaign(spec, options);
  pass.t1 = now_ns();
  pass.report = core::campaign_report_json(spec, pass.result);
  pass.t2 = now_ns();
  pass.shards = shard_spans(shard_trace, pass.t0);
  return pass;
}

void check_campaign_pass(const core::CampaignSpec& spec,
                         const CampaignPass& pass, int p, Outcome& out) {
  const core::CampaignResult& r = pass.result;
  const std::size_t shards = static_cast<std::size_t>(spec.shards);
  out.attempted += spec.clients;
  out.failed += r.aggregate.failed_clients;
  if (r.aggregate.clients != spec.clients || r.cancelled ||
      r.shards_run != shards || pass.shards.size() != shards ||
      r.aggregate.failed_clients != 0) {
    out.error("pass " + std::to_string(p) + ": " +
              std::to_string(r.aggregate.clients) + " of " +
              std::to_string(spec.clients) + " clients in " +
              std::to_string(r.shards_run) + " shards, " +
              std::to_string(r.aggregate.failed_clients) + " failed");
  }
  const std::optional<Value> doc = obs::json::parse(pass.report);
  const Value* totals = doc ? doc->find("totals") : nullptr;
  const Value* clients = totals ? totals->find("clients") : nullptr;
  if (!clients || !clients->is_int() ||
      static_cast<std::uint64_t>(clients->as_int()) != spec.clients) {
    out.error("pass " + std::to_string(p) +
              ": campaign report does not parse back to its client count");
  }
}

/// The campaign's first `shards` shards as a campaign of their own: same
/// clients, same shard size.
core::CampaignSpec leading_shards(const core::CampaignSpec& spec, int shards) {
  core::CampaignSpec s = spec;
  s.clients = shard_range(spec.clients, static_cast<std::size_t>(spec.shards),
                          static_cast<std::size_t>(shards))
                  .first;
  s.shards = shards;
  return s;
}

/// The campaign's one engine call cut into `blocks` stretches of its run:
/// shards in order of completion, each block from the previous block's last
/// completion to its own (the first from the call, the last to the end of
/// the report), so per-stretch numbers can be taken like a matrix pass's.
std::vector<Pass> shard_blocks(const CampaignPass& pass, int blocks) {
  std::vector<const ShardSpan*> order;
  for (const auto& [k, s] : pass.shards) order.push_back(&s);
  std::sort(order.begin(), order.end(),
            [](const ShardSpan* a, const ShardSpan* b) { return a->t1 < b->t1; });
  const std::size_t n = std::min(order.size(), static_cast<std::size_t>(blocks));
  std::vector<Pass> out;
  std::int64_t start = pass.t0;
  for (std::size_t b = 0; b < n; ++b) {
    const std::size_t lo = order.size() * b / n, hi = order.size() * (b + 1) / n;
    const std::int64_t end = b + 1 == n ? pass.t2 : order[hi - 1]->t1;
    Pass& p = out.emplace_back();
    p.seconds = static_cast<double>(end - start) / 1e9;
    for (std::size_t i = lo; i < hi; ++i) {
      p.units += static_cast<double>(order[i]->clients);
      p.unit_ms.push_back(static_cast<double>(order[i]->t1 - order[i]->t0) / 1e6);
    }
    start = end;
  }
  return out;
}

double ns_per_client(const CampaignPass& pass, std::uint64_t clients) {
  return ratio(static_cast<double>(pass.t2 - pass.t0),
               static_cast<double>(clients));
}

void run_campaign_workload(const Options& opt, SpanLog* spans, Outcome& out) {
  core::CampaignSpec spec;  // defaults: 10% lossy clients, 2 runs per client
  spec.seed = opt.seed;
  spec.clients = opt.smoke ? 800 : kCampaignClients;
  spec.shards = opt.smoke ? 8 : kCampaignShards;
  const std::size_t shards = static_cast<std::size_t>(spec.shards);
  core::CampaignOptions base;
  base.jobs = opt.jobs;
  out.unit = "shard";
  out.throughput_unit = "clients/s";

  repeat_setup(out,
               [&] { run_campaign_pass(leading_shards(spec, kWarmups), base); });

  // Traced runs first time the leading quarter of the shards untraced; the
  // tracing overhead compares the time per client of the two.
  double ref_ns_per_client = 0;
  if (opt.trace) {
    const core::CampaignSpec ref = leading_shards(spec, spec.shards / 4);
    ref_ns_per_client = ns_per_client(run_campaign_pass(ref, base), ref.clients);
  }

  ProfRegion prof_region{opt.trace};
  e2e::CounterDelta counters;
  const CampaignPass pass = run_campaign_pass(spec, base);
  std::map<std::string, double> prof = prof_region.stop();
  std::map<std::string, double> cd = counters.delta();

  out.passes = shard_blocks(pass, kCampaignBlocks);
  const double engine_ns = static_cast<double>(pass.t1 - pass.t0);
  std::vector<double> shard_ms;
  double busy_ns = 0;
  for (const auto& [k, s] : pass.shards) {
    shard_ms.push_back(static_cast<double>(s.t1 - s.t0) / 1e6);
    busy_ns += static_cast<double>(s.t1 - s.t0);
  }
  out.digest.update(pass.report);
  check_campaign_pass(spec, pass, 0, out);
  if (spans) {
    const std::size_t root =
        spans->add("campaign", SpanLog::kRoot, pass.t0, pass.t2, 0);
    const std::size_t engine = spans->add("engine", root, pass.t0, pass.t1, 0);
    for (const auto& [k, s] : pass.shards) {
      spans->add("shard", engine, s.t0, s.t1, -1);
    }
    spans->add("report", root, pass.t1, pass.t2, 0);
  }

  // Shards re-run outside the engine through the public pieces must match
  // the engine's per-shard totals: one shard chosen by the seed, or (traced)
  // one shard in 16, spanned and merged into one total.
  std::vector<std::size_t> replays;
  if (!spans) {
    replays.push_back(static_cast<std::size_t>(opt.seed % shards));
  } else {
    for (std::size_t k = 0; k < shards; k += 16) replays.push_back(k);
  }
  const core::CampaignSampler sampler{spec};
  const std::size_t replay_root =
      spans ? spans->open("replay") : SpanLog::kRoot;
  core::CampaignAggregate replayed{spec.grid, sampler.profile_count()};
  std::mutex replayed_mu;
  {
    core::ThreadPool pool{opt.jobs};
    for (const std::size_t k : replays) {
      pool.submit([&, k] {
        const std::size_t span =
            spans ? spans->open("replay_shard", replay_root) : SpanLog::kRoot;
        const core::CampaignAggregate agg =
            replay_shard(spec, sampler, shards, k, spans, span);
        std::lock_guard<std::mutex> lock{replayed_mu};
        const std::int64_t m0 = now_ns();
        replayed.merge(agg);
        if (spans) {
          spans->add("merge", span, m0, now_ns(), e2e::thread_index());
          spans->close(span);
        }
        const auto it = pass.shards.find(k);
        check_replay(agg, it == pass.shards.end() ? nullptr : &it->second, k,
                     out);
      });
    }
    pool.wait_idle();
  }
  if (!spans) return;
  spans->close(replay_root);

  const SpanTree tree{spans->spans()};
  const double parallel_ns = opt.jobs * engine_ns;
  simulation_layers(cd, prof, parallel_ns, out.attempted, out);
  const double replay_clients = static_cast<double>(replayed.clients);
  const auto us_per_client = [&](const char* name) {
    return ratio(static_cast<double>(tree.total_ns(name)) / 1e3, replay_clients);
  };
  auto& l = out.layers;
  l["core.engine_self_ms"] = static_cast<double>(tree.self_ns("engine")) / 1e6;
  l["core.report_ms"] = static_cast<double>(tree.total_ns("report")) / 1e6;
  l["core.campaign.shard_ms_p50"] = e2e::quantile(shard_ms, 0.50);
  l["core.campaign.shard_ms_p99"] = e2e::quantile(shard_ms, 0.99);
  l["core.campaign.pool_busy_share"] = ratio(busy_ns, parallel_ns);
  l["core.campaign.sampler_us_per_client"] = us_per_client("sampler");
  l["core.campaign.experiment_us_per_client"] =
      us_per_client("client_experiment");
  l["stats.fold_us_per_client"] = us_per_client("fold");
  l["stats.merge_ms_per_shard"] =
      ratio(static_cast<double>(tree.total_ns("merge")) / 1e6,
            static_cast<double>(replays.size()));
  l["obs.trace_overhead_share"] =
      ratio(ns_per_client(pass, spec.clients), ref_ns_per_client);
}

// ---------------------------------------------------------------------------
// passive_offline

/// Read-only istream over bytes the caller keeps alive (no copy).
class MemoryStream : private std::streambuf, public std::istream {
 public:
  explicit MemoryStream(const std::string& bytes) : std::istream{this} {
    char* p = const_cast<char*>(bytes.data());
    setg(p, p, p + bytes.size());
  }
};

struct Capture {
  std::string label;
  std::string pcap;         ///< classic pcap bytes (PcapWriter::write)
  std::string live_report;  ///< report_json of the live tap
  std::size_t packets = 0;
};

/// One simulated testbed: TCP echo with RFC 7323 timestamps, `conns`
/// connections x `exchanges` request/echo rounds. The variant (index % 4)
/// is clean, drop-nth faults toward the server, 2 ms server jitter, or the
/// tap at the server NIC instead of the client's.
Capture simulate_capture(std::uint64_t seed, int index, int conns,
                         int exchanges) {
  static const char* const kVariants[] = {"clean", "drop_nth", "jitter2ms",
                                          "server_tap"};
  const int variant = index % 4;
  core::Testbed::Config tc;
  tc.seed = seed * 1000003ull + static_cast<std::uint64_t>(index);
  tc.tcp.timestamps = true;
  if (variant == 1) {
    net::FaultPlan plan;
    plan.drop_nth_data_segment(3)
        .drop_nth_data_segment(41)
        .drop_nth_data_segment(77);
    tc.faults_to_server = plan;
  } else if (variant == 2) {
    tc.server_jitter = sim::Duration::millis(2);
  } else if (variant == 3) {
    tc.capture_at_server = true;
  }
  core::Testbed bed{tc};

  std::vector<std::shared_ptr<net::TcpConnection>> links(
      static_cast<std::size_t>(conns));
  for (int c = 0; c < conns; ++c) {
    net::TcpCallbacks cbs;
    cbs.on_connect = [&bed, &links, c, exchanges] {
      for (int i = 0; i < exchanges; ++i) {
        bed.sim().scheduler().schedule_after(
            sim::Duration::millis(20 * (i + 1) + c), [&links, c, i] {
              links[static_cast<std::size_t>(c)]->send(
                  std::string(48 + (i % 5) * 24, 'e'));
            });
      }
    };
    links[static_cast<std::size_t>(c)] =
        bed.client().tcp_connect(bed.tcp_echo_endpoint(), std::move(cbs));
  }
  bed.sim().scheduler().run_until(
      bed.sim().now() + sim::Duration::millis(20 * (exchanges + 2) + conns) +
      sim::Duration::seconds(5));

  const net::PacketCapture& cap =
      variant == 3 ? bed.server().capture() : bed.client().capture();
  Capture out;
  out.label = std::string{kVariants[variant]} + "-" + std::to_string(index);
  std::ostringstream pcap;
  net::PcapWriter::write(cap, pcap);
  out.pcap = std::move(pcap).str();
  passive::PassiveRttEstimator live;
  live.consume(cap);
  out.live_report = live.report_json(out.label);
  out.packets = cap.size();
  return out;
}

struct Replay {
  std::string report;
  std::size_t records = 0;
  bool ok = false;
  std::int64_t t0 = 0, t1 = 0, t2 = 0, t3 = 0;  ///< read | consume | report
};

Replay replay_capture(const Capture& c) {
  Replay r;
  r.t0 = now_ns();
  MemoryStream in{c.pcap};
  const net::PcapReader::Result parsed = net::PcapReader::read(in);
  r.t1 = now_ns();
  passive::PassiveRttEstimator est;
  est.consume(parsed.records);
  r.t2 = now_ns();
  r.report = est.report_json(c.label);
  r.t3 = now_ns();
  r.ok = parsed.ok();
  r.records = parsed.records.size();
  return r;
}

/// Moves the calling thread to one CPU after another, so a single-threaded
/// run visits every CPU it may use instead of the one the scheduler first
/// picked: on a shared host each CPU's speed rises and falls with whatever
/// runs beside it (one replay pass measured 1.6x slower on one CPU than on
/// another at the same moment), and a run held on one CPU measures that
/// CPU's luck. The destructor restores the original affinity.
class CpuRotation {
 public:
  CpuRotation() {
    if (sched_getaffinity(0, sizeof allowed_, &allowed_) != 0) return;
    for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu) {
      if (CPU_ISSET(cpu, &allowed_)) cpus_.push_back(cpu);
    }
  }
  ~CpuRotation() { unpin(); }
  CpuRotation(const CpuRotation&) = delete;
  CpuRotation& operator=(const CpuRotation&) = delete;

  /// Pin to the turn-th CPU in rotation; a failure leaves the thread free.
  void pin(int turn) {
    if (cpus_.empty()) return;
    cpu_set_t one;
    CPU_ZERO(&one);
    CPU_SET(cpus_[static_cast<std::size_t>(turn) % cpus_.size()], &one);
    sched_setaffinity(0, sizeof one, &one);
  }
  void unpin() {
    if (!cpus_.empty()) sched_setaffinity(0, sizeof allowed_, &allowed_);
  }

 private:
  cpu_set_t allowed_{};
  std::vector<int> cpus_;
};

void run_passive_workload(const Options& opt, SpanLog* spans, Outcome& out) {
  const int testbeds = opt.smoke ? 8 : kPassiveTestbeds;
  const int conns = opt.smoke ? 2 : kPassiveConns;
  const int exchanges = opt.smoke ? 10 : kPassiveExchanges;
  const int passes = opt.smoke ? 2 : kPassivePasses;
  out.unit = "capture";
  out.throughput_unit = "packets/s";
  out.one_cpu_passes = true;

  std::vector<Capture> captures;
  std::string setup_digest;
  CpuRotation cpus;
  int turn = 0;
  repeat_setup(out, [&] {
    captures.assign(static_cast<std::size_t>(testbeds), Capture{});
    {
      // Created unpinned: new threads inherit the creating thread's CPUs.
      core::ThreadPool pool{opt.jobs};
      for (int i = 0; i < testbeds; ++i) {
        pool.submit([&, i] {
          captures[static_cast<std::size_t>(i)] =
              simulate_capture(opt.seed, i, conns, exchanges);
        });
      }
      pool.wait_idle();
    }
    for (int w = 0; w < kWarmups; ++w) {
      cpus.pin(turn++);
      for (const Capture& c : captures) replay_capture(c);
    }
    cpus.unpin();
    e2e::Fnv1a h;
    for (const Capture& c : captures) h.update(c.pcap);
    if (!setup_digest.empty() && h.hex() != setup_digest) {
      out.error("set-up produced different captures on repetition");
    }
    setup_digest = h.hex();
  });

  const int ref_passes = opt.trace ? std::max(1, passes / 4) : 0;
  double ref_s = 0;
  for (int p = 0; p < ref_passes; ++p) {
    cpus.pin(p);
    for (const Capture& c : captures) {
      const Replay r = replay_capture(c);
      ref_s += static_cast<double>(r.t3 - r.t0) / 1e9;
    }
  }

  ProfRegion prof_region{opt.trace};
  e2e::CounterDelta counters;
  double traced_ref_s = 0, packets = 0;
  for (int p = 0; p < passes; ++p) {
    cpus.pin(p);
    Pass& timed = out.passes.emplace_back();
    for (const Capture& c : captures) {
      const Replay r = replay_capture(c);
      const double s = static_cast<double>(r.t3 - r.t0) / 1e9;
      timed.seconds += s;
      timed.units += static_cast<double>(r.records);
      timed.unit_ms.push_back(s * 1e3);
      if (p < ref_passes) traced_ref_s += s;
      packets += static_cast<double>(r.records);
      ++out.attempted;
      out.digest.update(r.report);
      if (!r.ok || r.records != c.packets || r.report != c.live_report) {
        ++out.failed;
        out.error("pass " + std::to_string(p) + " " + c.label + ": " +
                  std::to_string(r.records) + " of " +
                  std::to_string(c.packets) +
                  " records, report matches live tap: " +
                  (r.report == c.live_report ? "yes" : "no"));
      }
      if (spans) {
        // Captures are the roots: the checks between them are untimed.
        const std::size_t cap =
            spans->add("capture", SpanLog::kRoot, r.t0, r.t3, 0);
        spans->add("pcap_read", cap, r.t0, r.t1, 0);
        spans->add("consume", cap, r.t1, r.t2, 0);
        spans->add("passive_report", cap, r.t2, r.t3, 0);
      }
    }
  }
  prof_region.stop();
  std::map<std::string, double> cd = counters.delta();

  if (!spans) return;
  const SpanTree tree{spans->spans()};
  const double mpkt = packets / 1e6;
  const auto ms_per_mpkt = [&](const char* name) {
    return ratio(static_cast<double>(tree.total_ns(name)) / 1e6, mpkt);
  };
  auto& l = out.layers;
  l["net.pcap_read_ms_per_mpkt"] = ms_per_mpkt("pcap_read");
  l["passive.consume_ms_per_mpkt"] = ms_per_mpkt("consume");
  l["passive.report_ms_per_mpkt"] = ms_per_mpkt("passive_report");
  l["passive.sample_yield"] = ratio(cd["passive.samples"], cd["passive.ts_packets"]);
  l["passive.poisoned_share"] =
      ratio(cd["passive.retransmit_poisoned"], cd["passive.anchors"]);
  l["core.report_ms"] =
      static_cast<double>(tree.total_ns("passive_report")) / 1e6 / passes;
  l["obs.trace_overhead_share"] = ratio(traced_ref_s, ref_s);
}

// ---------------------------------------------------------------------------
// Result

/// Every per-layer metric, with its unit. A workload that does not exercise
/// a layer reports 0 for it.
const std::vector<std::pair<const char*, const char*>>& layer_catalog() {
  static const std::vector<std::pair<const char*, const char*>> k = {
      {"sim.events_per_rep", "count"},
      {"sim.overflow_pulls_per_event", "count"},
      {"sim.bucket_promotions_per_event", "count"},
      {"sim.arena_allocs_per_rep", "count"},
      {"sim.dispatch_share", "incl_share"},
      {"net.deep_copy_bytes_per_rep", "bytes"},
      {"net.buffers_per_rep", "count"},
      {"net.tcp_segmentation_share", "incl_share"},
      {"net.pcap_read_ms_per_mpkt", "ms/Mpkt"},
      {"http.connections_per_rep", "count"},
      {"http.retries_per_client", "count"},
      {"http.timeouts_per_client", "count"},
      {"methods.stamp_share", "incl_share"},
      {"core.experiment_ms_p50", "ms"},
      {"core.experiment_ms_p99", "ms"},
      {"core.persist_ms_p50", "ms"},
      {"core.persist_ms_p99", "ms"},
      {"core.engine_self_ms", "ms"},
      {"core.pool_busy_share", "share"},
      {"core.report_ms", "ms"},
      {"core.sample_yield", "ratio"},
      {"core.repetition_share", "incl_share"},
      {"core.window_scan_share", "incl_share"},
      {"core.checkpoint_bytes_per_cell", "bytes"},
      {"core.checkpoint_useful_ratio", "ratio"},
      {"core.checkpoint_flush_share", "incl_share"},
      {"core.campaign.shard_ms_p50", "ms"},
      {"core.campaign.shard_ms_p99", "ms"},
      {"core.campaign.pool_busy_share", "share"},
      {"core.campaign.sampler_us_per_client", "us"},
      {"core.campaign.experiment_us_per_client", "us"},
      {"stats.fold_us_per_client", "us"},
      {"stats.merge_ms_per_shard", "ms"},
      {"passive.consume_ms_per_mpkt", "ms/Mpkt"},
      {"passive.report_ms_per_mpkt", "ms/Mpkt"},
      {"passive.sample_yield", "ratio"},
      {"passive.poisoned_share", "share"},
      {"obs.trace_overhead_share", "ratio"},
      {"coverage", "share"},
  };
  return k;
}

/// End-to-end numbers from a workload's passes, each pass summarized on its
/// own: throughput, mean unit latency and p99.
///
/// Throughput and mean latency are taken from the median pass, or from the
/// best pass when each pass runs on a single CPU. A pass spread over all
/// CPUs varies both ways with the program's own scheduling (lock order,
/// which worker drew which cell), so its middle is steadiest; a pass on one
/// CPU varies only with how disturbed that CPU was, and the host's other
/// tenants only ever slow it, so its best is steadiest.
///
/// The typical unit is a mean, not a median: a pass's units run on CPUs
/// whose speeds differ by up to 1.6x, so their latencies form one cluster
/// per speed and a median jumps between clusters from run to run.
///
/// The p99 is there to show slow units, so it is the upper quartile over
/// passes of each pass's p99: a tail that one pass in four reaches, stalls
/// and slowed CPUs included, without the single worst pass. A p99 pooled
/// over all passes would sit on a cliff: a matrix_crashsafe pass has about
/// one cell in 88 that waits most of the pass for the checkpoint lock, and
/// a pooled p99 of those runs read anywhere from 330 to 570 ms.
struct Summary {
  double units_per_s = 0;
  double unit_ms_mean = 0;
  double unit_ms_p99 = 0;
  double seconds = 0;  ///< total timed wall time
  double units = 0;    ///< total work units
  std::size_t samples = 0;  ///< unit latencies over all passes
  std::vector<double> rates, mean, p99;  ///< per pass
};

Summary summarize(const std::vector<Pass>& passes, bool one_cpu_passes) {
  Summary s;
  for (const Pass& p : passes) {
    s.rates.push_back(ratio(p.units, p.seconds));
    const double sum_ms =
        std::accumulate(p.unit_ms.begin(), p.unit_ms.end(), 0.0);
    s.mean.push_back(ratio(sum_ms, static_cast<double>(p.unit_ms.size())));
    s.p99.push_back(e2e::quantile(p.unit_ms, 0.99));
    s.seconds += p.seconds;
    s.units += p.units;
    s.samples += p.unit_ms.size();
  }
  const double q = one_cpu_passes ? 0.0 : 0.5;
  s.units_per_s = e2e::quantile(s.rates, 1.0 - q);
  s.unit_ms_mean = e2e::quantile(s.mean, q);
  s.unit_ms_p99 = e2e::quantile(s.p99, 0.75);
  return s;
}

struct Metric {
  std::string name;
  double value;
  std::string unit;
  std::string note;  ///< printed after the unit (sample counts)
};

Value metric_json(const Metric& m) {
  Value v = Value::object();
  v.add("value", Value::number(m.value));
  v.add("unit", Value::string(m.unit));
  return v;
}

/// The golden digest for this workload, when the run uses the golden file's
/// seed at full size; empty otherwise.
std::string golden_digest(const Options& opt) {
  if (opt.golden.empty() || opt.smoke) return {};
  std::ifstream in{opt.golden};
  std::stringstream text;
  text << in.rdbuf();
  const std::optional<Value> doc = obs::json::parse(text.str());
  if (!doc) return {};
  const Value* seed = doc->find("seed");
  const Value* digests = doc->find("digests");
  if (!seed || !digests || !seed->is_int() ||
      static_cast<std::uint64_t>(seed->as_int()) != opt.seed) {
    return {};
  }
  const Value* d = digests->find(opt.workload);
  return d && d->is_string() ? d->as_string() : std::string{};
}

[[noreturn]] void usage(const char* msg) {
  std::fprintf(stderr,
               "e2e_bench: %s\nusage: e2e_bench --workload "
               "paper_matrix|matrix_crashsafe|campaign_population|"
               "passive_offline [--seed N] [--trace 0|1] [--jobs N] "
               "[--golden PATH] [--out PATH] [--scratch DIR] "
               "[--git-sha SHA] [--smoke]\n",
               msg);
  std::exit(2);
}

Options parse_options(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    const auto number = [&](double lo) {
      const std::string s = value();
      char* end = nullptr;
      const double v = std::strtod(s.c_str(), &end);
      if (s.empty() || *end != '\0' || !(v >= lo)) {
        usage(("bad value for " + arg + ": " + s).c_str());
      }
      return v;
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      const std::string s = value();
      char* end = nullptr;
      opt.seed = std::strtoull(s.c_str(), &end, 10);
      if (s.empty() || *end != '\0' || s[0] == '-') {
        usage(("bad value for --seed: " + s).c_str());
      }
    } else if (arg == "--trace") {
      opt.trace = number(0) != 0;
    } else if (arg == "--jobs") {
      opt.jobs = static_cast<int>(number(1));
    } else if (arg == "--golden") {
      opt.golden = value();
    } else if (arg == "--out") {
      opt.out = value();
    } else if (arg == "--scratch") {
      opt.scratch = value();
    } else if (arg == "--git-sha") {
      opt.git_sha = value();
    } else if (arg == "--smoke") {
      opt.smoke = true;
    } else {
      usage(("unknown argument " + arg).c_str());
    }
  }
  const int hw = std::max(1u, std::thread::hardware_concurrency());
  if (opt.jobs == 0) opt.jobs = std::min(4, hw);
  if (opt.jobs > hw) {
    usage(("--jobs " + std::to_string(opt.jobs) + " exceeds the " +
           std::to_string(hw) + " hardware threads")
              .c_str());
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  // Keep freed heap memory in the process: without this, glibc returns the
  // large buffers of every pass to the kernel and the next pass faults them
  // back in, and on a VM whose host reclaims freed guest pages that kernel
  // time (15% of passive_offline's CPU time) varies with the host's memory
  // pressure. Peak RSS is unchanged; set-up and warm-up fill the heap.
  mallopt(M_MMAP_THRESHOLD, 32 << 20);
  mallopt(M_TRIM_THRESHOLD, 1 << 30);
  const Options opt = parse_options(argc, argv);
  std::filesystem::create_directories(opt.scratch);

  SpanLog span_log;
  SpanLog* spans = opt.trace ? &span_log : nullptr;
  Outcome out;
  if (opt.workload == "paper_matrix") {
    run_matrix_workload(opt, false, spans, out);
  } else if (opt.workload == "matrix_crashsafe") {
    run_matrix_workload(opt, true, spans, out);
  } else if (opt.workload == "campaign_population") {
    run_campaign_workload(opt, spans, out);
  } else if (opt.workload == "passive_offline") {
    run_passive_workload(opt, spans, out);
  } else {
    usage(("unknown workload '" + opt.workload + "'").c_str());
  }

  const std::string digest = out.digest.hex();
  const std::string golden = golden_digest(opt);
  if (!golden.empty() && golden != digest) {
    out.error("digest " + digest + " does not match golden " + golden);
  }
  if (!out.errors.empty()) out.failed = out.attempted;
  const bool correct = out.errors.empty();
  const double failed_share =
      ratio(static_cast<double>(out.failed), static_cast<double>(out.attempted));

  std::vector<Metric> metrics;
  const Summary s = summarize(out.passes, out.one_cpu_passes);
  if (!opt.trace) {
    const std::string passes = std::to_string(out.passes.size()) + " passes";
    const std::string pick = out.one_cpu_passes ? "best" : "median";
    const std::string n = "n=" + std::to_string(s.samples) + " " + out.unit +
                          "s; per pass, ";
    metrics = {
        {"setup_s", e2e::median(out.setup_s), "s",
         "median of " + std::to_string(out.setup_s.size())},
        {"units_per_s", s.units_per_s, "1/s",
         std::string{out.throughput_unit} + "; per pass, " + pick + " of " +
             passes},
        {"unit_ms_mean", s.unit_ms_mean, "ms",
         n + pick + " of " + passes},
        {"unit_ms_p99", s.unit_ms_p99, "ms",
         n + "upper quartile of " + passes},
        {"peak_rss_mb", e2e::peak_rss_mb(), "MiB", ""},
    };
  } else {
    out.layers["coverage"] = SpanTree{span_log.spans()}.coverage();
    for (const auto& [name, unit] : layer_catalog()) {
      const auto it = out.layers.find(name);
      metrics.push_back({name, it == out.layers.end() ? 0.0 : it->second, unit,
                         std::string{unit} == "incl_share" ? "inclusive prof"
                                                           : ""});
    }
  }

  for (const Metric& m : metrics) {
    std::printf("%s %.6g %s%s%s\n", m.name.c_str(), m.value, m.unit.c_str(),
                m.note.empty() ? "" : "  ", m.note.c_str());
  }
  std::printf("failed_share %.6g ratio  (%" PRIu64 " of %" PRIu64 ")\n",
              failed_share, out.failed, out.attempted);
  std::printf("digest %s%s\n", digest.c_str(),
              golden.empty() ? "" : (golden == digest ? " (golden)" : " (MISMATCH)"));

  Value metrics_json = Value::object();
  for (const Metric& m : metrics) metrics_json.add(m.name, metric_json(m));

  if (!opt.out.empty()) {
    Value r = Value::object();
    r.add("workload", Value::string(opt.workload));
    r.add("seed", Value::integer(static_cast<std::int64_t>(opt.seed)));
    r.add("trace", Value::boolean(opt.trace));
    r.add("smoke", Value::boolean(opt.smoke));
    r.add("jobs", Value::integer(opt.jobs));
    r.add("hardware_concurrency",
          Value::integer(std::thread::hardware_concurrency()));
    r.add("build_type", Value::string(E2E_BUILD_TYPE));
    r.add("git_sha", Value::string(opt.git_sha));
    r.add("correct", Value::boolean(correct));
    r.add("attempted", Value::integer(static_cast<std::int64_t>(out.attempted)));
    r.add("failed", Value::integer(static_cast<std::int64_t>(out.failed)));
    r.add("failed_share", Value::number(failed_share));
    r.add("digest", Value::string(digest));
    r.add("golden", Value::string(golden.empty() ? "unchecked"
                                  : golden == digest ? "match" : "mismatch"));
    r.add("timed_s", Value::number(s.seconds));
    r.add("units", Value::number(s.units));
    r.add("metrics", metrics_json);
    const auto array = [](const std::vector<double>& v) {
      Value a = Value::array();
      for (double x : v) a.push(Value::number(x));
      return a;
    };
    std::vector<double> pass_s;
    for (const Pass& p : out.passes) pass_s.push_back(p.seconds);
    r.add("pass_s", array(pass_s));
    r.add("pass_units_per_s", array(s.rates));
    r.add("pass_unit_ms_mean", array(s.mean));
    r.add("pass_unit_ms_p99", array(s.p99));
    r.add("setup_runs_s", array(out.setup_s));
    Value errors = Value::array();
    for (const std::string& e : out.errors) errors.push(Value::string(e));
    r.add("errors", std::move(errors));
    std::ofstream f{opt.out};
    f << r.dump() << "\n";
    if (spans && !span_log.write_chrome_trace(opt.out + ".spans.json")) {
      std::fprintf(stderr, "e2e_bench: cannot write spans next to %s\n",
                   opt.out.c_str());
    }
  }

  Value line = Value::object();
  line.add("correct", Value::boolean(correct));
  line.add("attempted", Value::integer(static_cast<std::int64_t>(out.attempted)));
  line.add("failed", Value::integer(static_cast<std::int64_t>(out.failed)));
  line.add("metrics", std::move(metrics_json));
  std::printf("%s\n", line.dump().c_str());
  return correct ? 0 : 1;
}

// Chaos harness for the crash-safe matrix engine (scripts/check.sh gate).
//
// Drives core::run_matrix_checked through the failure modes the engine
// exists for, from the outside, as a real campaign driver would:
//
//   clean run:      chaos_matrix --checkpoint=ck.json --report=clean.json
//   hard kill:      chaos_matrix --checkpoint=ck.json --kill-after=K
//                   (process _Exit(42)s from inside the progress callback
//                   after K cells — the checkpoint was already flushed, so
//                   this is the worst-case crash point)
//   resume:         chaos_matrix --checkpoint=ck.json --resume
//                   --report=resumed.json
//   soft cancel:    chaos_matrix --soft-kill-after=K  (cooperative cancel;
//                   exits 43 after verifying the drain was graceful)
//
// The gate then asserts `cmp clean.json resumed.json`: a killed-and-resumed
// run must produce a byte-identical report, including under active
// FaultPlans (--faults).
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/parallel_runner.h"

namespace {

using namespace bnm;

struct Options {
  int cells = 12;
  int runs = 3;
  int jobs = 2;
  std::string checkpoint;
  bool resume = false;
  long kill_after = -1;       ///< hard _Exit(42) after K completed cells
  long soft_kill_after = -1;  ///< cooperative cancel after K completed cells
  bool faults = false;        ///< add FaultPlan-bearing cells to the matrix
  std::string report;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--cells=N] [--runs=N] [--jobs=N] [--checkpoint=PATH]\n"
      "          [--resume] [--kill-after=K] [--soft-kill-after=K]\n"
      "          [--faults] [--report=PATH]\n",
      argv0);
  std::exit(2);
}

bool parse_long(const char* s, long* out) {
  char* end = nullptr;
  *out = std::strtol(s, &end, 10);
  return end && *end == '\0';
}

Options parse_args(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    long v = 0;
    if (const char* s = value("--cells=")) {
      if (!parse_long(s, &v) || v < 1) usage(argv[0]);
      opt.cells = static_cast<int>(v);
    } else if (const char* s = value("--runs=")) {
      if (!parse_long(s, &v) || v < 1) usage(argv[0]);
      opt.runs = static_cast<int>(v);
    } else if (const char* s = value("--jobs=")) {
      if (!parse_long(s, &v)) usage(argv[0]);
      opt.jobs = static_cast<int>(v);
    } else if (const char* s = value("--checkpoint=")) {
      opt.checkpoint = s;
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (const char* s = value("--kill-after=")) {
      if (!parse_long(s, &opt.kill_after) || opt.kill_after < 1) {
        usage(argv[0]);
      }
    } else if (const char* s = value("--soft-kill-after=")) {
      if (!parse_long(s, &opt.soft_kill_after) || opt.soft_kill_after < 1) {
        usage(argv[0]);
      }
    } else if (arg == "--faults") {
      opt.faults = true;
    } else if (const char* s = value("--report=")) {
      opt.report = s;
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

/// A deterministic mixed matrix: HTTP, socket and plugin methods across
/// browsers/OSes, cycled out to --cells entries. With --faults, every third
/// cell carries loss/blackhole fault plans, so the bit-identity contract is
/// exercised under active fault injection too.
std::vector<core::ExperimentConfig> build_matrix(const Options& opt) {
  using B = browser::BrowserId;
  using O = browser::OsId;
  using K = methods::ProbeKind;
  struct Proto {
    B b;
    O os;
    K k;
  };
  const Proto protos[] = {
      {B::kChrome, O::kUbuntu, K::kXhrGet},
      {B::kFirefox, O::kUbuntu, K::kDom},
      {B::kChrome, O::kWindows7, K::kJavaSocket},
      {B::kOpera, O::kUbuntu, K::kFlashGet},
      {B::kChrome, O::kUbuntu, K::kWebSocket},
      {B::kFirefox, O::kWindows7, K::kXhrPost},
      {B::kSafari, O::kWindows7, K::kJavaUdp},
      {B::kOpera, O::kWindows7, K::kFlashPost},
  };
  constexpr std::size_t kProtos = sizeof(protos) / sizeof(protos[0]);

  std::vector<core::ExperimentConfig> cells;
  cells.reserve(static_cast<std::size_t>(opt.cells));
  for (int i = 0; i < opt.cells; ++i) {
    const Proto& p = protos[static_cast<std::size_t>(i) % kProtos];
    core::ExperimentConfig cfg;
    cfg.browser = p.b;
    cfg.os = p.os;
    cfg.kind = p.k;
    cfg.runs = opt.runs;
    cfg.seed = 42 + static_cast<std::uint64_t>(i) / kProtos;
    if (opt.faults && i % 3 == 1) {
      net::FaultPlan to_server;
      to_server.name = "chaos-to-server";
      to_server.loss_probability = 0.02;
      cfg.testbed.faults_to_server = to_server;
      net::FaultPlan from_server;
      from_server.name = "chaos-from-server";
      from_server.blackhole(sim::TimePoint::epoch() + sim::Duration::seconds(2),
                            sim::TimePoint::epoch() + sim::Duration::seconds(3));
      cfg.testbed.faults_from_server = from_server;
      // Give the transport a way out of the blackhole so the cell still
      // converges deterministically instead of riding the sample deadline.
      cfg.http_request_timeout = sim::Duration::seconds(2);
      cfg.http_max_retries = 2;
    }
    cells.push_back(cfg);
  }
  return cells;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);
  const std::vector<core::ExperimentConfig> cells = build_matrix(opt);

  std::atomic<bool> cancel{false};
  std::atomic<long> completed{0};

  core::MatrixOptions options;
  options.jobs = opt.jobs;
  options.checkpoint.path = opt.checkpoint;
  options.checkpoint.resume = opt.resume;
  options.cancel = opt.soft_kill_after > 0 ? &cancel : nullptr;
  options.progress = [&](std::size_t done, std::size_t total) {
    const long n = ++completed;
    std::fprintf(stderr, "chaos_matrix: %zu/%zu cells\n", done, total);
    if (opt.kill_after > 0 && n >= opt.kill_after) {
      // Simulated crash at the worst moment: after the checkpoint flush for
      // this cell, before the engine gets control back. No destructors, no
      // atexit — as close to kill -9 as portable code gets.
      std::fprintf(stderr, "chaos_matrix: hard kill after %ld cells\n", n);
      std::_Exit(42);
    }
    if (opt.soft_kill_after > 0 && n >= opt.soft_kill_after) {
      cancel.store(true, std::memory_order_release);
    }
  };

  core::MatrixResult result;
  try {
    result = core::run_matrix_checked(cells, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "chaos_matrix: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr,
               "chaos_matrix: run=%zu resumed=%zu quarantined=%zu "
               "retries=%llu cancelled=%d\n",
               result.cells_run, result.cells_resumed,
               result.quarantined.size(),
               static_cast<unsigned long long>(result.retries),
               result.cancelled ? 1 : 0);

  if (opt.soft_kill_after > 0) {
    // Graceful drain: cancellation must be acknowledged, and every cell
    // that did complete must carry real samples (nothing torn mid-cell).
    if (!result.cancelled) {
      std::fprintf(stderr, "chaos_matrix: cancel was never acknowledged\n");
      return 1;
    }
    if (result.cells_run + result.cells_resumed >= cells.size()) {
      std::fprintf(stderr, "chaos_matrix: cancel did not stop the run\n");
      return 1;
    }
    return 43;
  }

  if (!result.quarantined.empty()) {
    for (const core::CellError& e : result.quarantined) {
      std::fprintf(stderr, "chaos_matrix: quarantined cell %zu (%s): %s\n",
                   e.cell, e.where.c_str(), e.what.c_str());
    }
    return 1;
  }

  if (!opt.report.empty() &&
      !core::write_matrix_report(opt.report, cells, result.series)) {
    std::fprintf(stderr, "chaos_matrix: cannot write report %s\n",
                 opt.report.c_str());
    return 1;
  }
  return 0;
}

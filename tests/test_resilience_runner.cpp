// The crash-safe matrix engine's runtime contract: watchdogs cancel hung
// cells, failed cells retry with backoff and quarantine with a structured
// error, cancellation drains gracefully, progress callbacks cannot wedge a
// run, and with everything disabled the engine is byte-identical to
// running each cell on its own.
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"
#include "core/parallel_runner.h"

namespace bnm::core {
namespace {

std::vector<ExperimentConfig> small_matrix(int cells, int runs = 2) {
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
      {B::kChrome, O::kUbuntu, K::kWebSocket},
  };
  std::vector<ExperimentConfig> out;
  for (int i = 0; i < cells; ++i) {
    ExperimentConfig cfg;
    const Proto& p = protos[static_cast<std::size_t>(i) % 4];
    cfg.browser = p.b;
    cfg.os = p.os;
    cfg.kind = p.k;
    cfg.runs = runs;
    cfg.seed = 42 + static_cast<std::uint64_t>(i) / 4;
    out.push_back(cfg);
  }
  return out;
}

MatrixOptions with_jobs(int jobs) {
  MatrixOptions opts;
  opts.jobs = jobs;
  return opts;
}

void expect_identical(const OverheadSeries& a, const OverheadSeries& b) {
  EXPECT_EQ(a.case_label, b.case_label);
  EXPECT_EQ(a.method_name, b.method_name);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.first_error, b.first_error);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    // Bitwise equality, not EXPECT_DOUBLE_EQ: determinism is the contract.
    EXPECT_EQ(a.samples[i].d1_ms, b.samples[i].d1_ms);
    EXPECT_EQ(a.samples[i].d2_ms, b.samples[i].d2_ms);
    EXPECT_EQ(a.samples[i].net_rtt1_ms, b.samples[i].net_rtt1_ms);
    EXPECT_EQ(a.samples[i].net_rtt2_ms, b.samples[i].net_rtt2_ms);
  }
}

TEST(CheckedRunner, DisabledEngineMatchesLegacyRunMatrix) {
  auto cells = small_matrix(5);
  const MatrixResult checked = run_matrix_checked(cells, with_jobs(1));
  ASSERT_EQ(checked.series.size(), cells.size());
  EXPECT_TRUE(checked.ok());
  EXPECT_EQ(checked.cells_run, cells.size());
  EXPECT_EQ(checked.retries, 0u);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(checked.series[i], run_experiment(cells[i]));
  }
}

TEST(CheckedRunner, DefaultPolicyRunsAFailingCellOnce) {
  const auto cells = small_matrix(1);
  std::atomic<int> attempts{0};
  const WatchedCellRunner throwing = [&](const ExperimentConfig&,
                                         CellWatchdog*) -> OverheadSeries {
    ++attempts;
    throw std::runtime_error("boom");
  };
  const MatrixResult result = run_matrix_checked(cells, {}, throwing);
  EXPECT_EQ(attempts.load(), 1);
  EXPECT_EQ(result.retries, 0u);
  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].attempts, 1);
  EXPECT_EQ(result.series[0].first_error, "uncaught exception: boom");
}

TEST(CheckedRunner, ParallelMatchesSerial) {
  auto cells = small_matrix(6);
  const MatrixResult serial = run_matrix_checked(cells, with_jobs(1));
  const MatrixResult parallel = run_matrix_checked(cells, with_jobs(3));
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(serial.series[i], parallel.series[i]);
  }
}

TEST(CheckedRunner, PoisonedCellQuarantinesAfterMaxAttempts) {
  auto cells = small_matrix(4);
  cells[1].seed = 0xDEAD;  // marks the poisoned cell

  std::atomic<int> attempts{0};
  const WatchedCellRunner faulty = [&](const ExperimentConfig& cfg,
                                       CellWatchdog* wd) {
    if (cfg.seed == 0xDEAD) {
      ++attempts;
      throw std::runtime_error("boom");
    }
    return run_experiment_watched(cfg, wd);
  };

  MatrixOptions options;
  options.jobs = 2;
  options.watchdog.max_attempts = 3;
  options.watchdog.backoff_base = std::chrono::milliseconds{1};
  const MatrixResult result = run_matrix_checked(cells, options, faulty);

  // Retried exactly max_attempts times, then quarantined with structure.
  EXPECT_EQ(attempts.load(), 3);
  EXPECT_EQ(result.retries, 2u);
  ASSERT_EQ(result.quarantined.size(), 1u);
  const CellError& err = result.quarantined[0];
  EXPECT_EQ(err.cell, 1u);
  EXPECT_EQ(err.where, "cell");
  EXPECT_EQ(err.what, "boom");
  EXPECT_EQ(err.attempts, 3);

  // The quarantined cell's series mirrors legacy failure shape; the other
  // cells are untouched.
  EXPECT_EQ(result.series[1].failures, cells[1].runs);
  EXPECT_EQ(result.series[1].first_error, "uncaught exception: boom");
  EXPECT_TRUE(result.series[1].samples.empty());
  for (std::size_t i : {0u, 2u, 3u}) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(result.series[i], run_experiment(cells[i]));
  }
}

TEST(CheckedRunner, TransientFailureSucceedsOnRetry) {
  auto cells = small_matrix(2);
  std::atomic<int> attempts{0};
  const WatchedCellRunner flaky = [&](const ExperimentConfig& cfg,
                                      CellWatchdog* wd) {
    if (cfg.seed == 42 && cfg.kind == methods::ProbeKind::kXhrGet &&
        attempts.fetch_add(1) == 0) {
      throw std::runtime_error("transient");
    }
    return run_experiment_watched(cfg, wd);
  };

  MatrixOptions options;
  options.jobs = 1;
  options.watchdog.max_attempts = 3;
  options.watchdog.backoff_base = std::chrono::milliseconds{1};
  const MatrixResult result = run_matrix_checked(cells, options, flaky);

  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.retries, 1u);
  EXPECT_TRUE(result.quarantined.empty());
  // The retried cell converged to the same deterministic series.
  expect_identical(result.series[0], run_experiment(cells[0]));
}

TEST(CheckedRunner, WallClockWatchdogCancelsHungCell) {
  auto cells = small_matrix(3);
  cells[0].seed = 0xDEAD;  // the hung cell

  // A fake cell that spins forever until the watchdog trips — the shape of
  // a real hang (infinite event loop) without burning minutes of CI time.
  const WatchedCellRunner hung = [](const ExperimentConfig& cfg,
                                    CellWatchdog* wd) {
    if (cfg.seed == 0xDEAD) {
      while (!wd->wall_expired.load(std::memory_order_acquire)) {
        std::this_thread::sleep_for(std::chrono::milliseconds{1});
      }
      throw CellAbortError{"watchdog.wall_clock", "wall clock tripped"};
    }
    return run_experiment_watched(cfg, wd);
  };

  MatrixOptions options;
  options.jobs = 2;
  options.watchdog.wall_limit = std::chrono::milliseconds{50};
  options.watchdog.max_attempts = 2;
  options.watchdog.backoff_base = std::chrono::milliseconds{1};
  const MatrixResult result = run_matrix_checked(cells, options, hung);

  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].cell, 0u);
  EXPECT_EQ(result.quarantined[0].where, "watchdog.wall_clock");
  EXPECT_EQ(result.quarantined[0].attempts, 2);
  EXPECT_EQ(result.series[0].failures, cells[0].runs);
  EXPECT_NE(result.series[0].first_error.find("watchdog.wall_clock"),
            std::string::npos);
  // The healthy cells still completed normally.
  expect_identical(result.series[1], run_experiment(cells[1]));
  expect_identical(result.series[2], run_experiment(cells[2]));
}

TEST(CheckedRunner, EventBudgetTripsDeterministically) {
  // A real experiment against a tiny simulated-event budget: the scheduler
  // seam (Scheduler::RunLimits) halts the cell and Experiment::run throws a
  // structured CellAbortError naming the budget guard.
  auto cells = small_matrix(1);
  MatrixOptions options;
  options.jobs = 1;
  options.watchdog.event_budget = 50;  // far below one repetition's events
  options.watchdog.max_attempts = 2;
  options.watchdog.backoff_base = std::chrono::milliseconds{1};
  const MatrixResult result = run_matrix_checked(cells, options);

  ASSERT_EQ(result.quarantined.size(), 1u);
  EXPECT_EQ(result.quarantined[0].where, "watchdog.event_budget");
  EXPECT_EQ(result.quarantined[0].attempts, 2);
  EXPECT_NE(result.quarantined[0].what.find("event_budget"),
            std::string::npos);

  // A generous budget lets the same cell complete, identical to unwatched.
  MatrixOptions roomy;
  roomy.jobs = 1;
  roomy.watchdog.event_budget = 50'000'000;
  const MatrixResult ok = run_matrix_checked(cells, roomy);
  EXPECT_TRUE(ok.ok());
  expect_identical(ok.series[0], run_experiment(cells[0]));
}

TEST(CheckedRunner, CancellationDrainsGracefully) {
  const auto cells = small_matrix(8);
  // Both sides of the runner's jobs == 1 split: the calling thread's loop
  // and the pool.
  for (const int jobs : {1, 2}) {
    SCOPED_TRACE("jobs " + std::to_string(jobs));
    std::atomic<bool> cancel{false};
    std::atomic<int> started{0};

    MatrixOptions options;
    options.jobs = jobs;
    options.cancel = &cancel;
    const WatchedCellRunner counting = [&](const ExperimentConfig& cfg,
                                           CellWatchdog* wd) {
      ++started;
      return run_experiment_watched(cfg, wd);
    };
    options.progress = [&](std::size_t done, std::size_t) {
      if (done >= 2) cancel.store(true, std::memory_order_release);
    };
    const MatrixResult result = run_matrix_checked(cells, options, counting);

    EXPECT_TRUE(result.cancelled);
    EXPECT_LT(result.cells_run, cells.size());
    EXPECT_EQ(result.cells_run, static_cast<std::size_t>(started.load()));
    // Cells that did run are complete, not torn.
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (result.series[i].samples.empty()) continue;
      SCOPED_TRACE("cell " + std::to_string(i));
      expect_identical(result.series[i], run_experiment(cells[i]));
    }
  }
}

TEST(CheckedRunner, ThrowingProgressDoesNotWedgeTheRun) {
  auto cells = small_matrix(4);
  const WatchedCellRunner runner = [](const ExperimentConfig& cfg,
                                      CellWatchdog* wd) {
    return run_experiment_watched(cfg, wd);
  };

  // Serial: every cell still runs and is still reported.
  std::size_t calls = 0;
  MatrixOptions serial_options;
  serial_options.jobs = 1;
  serial_options.progress = [&](std::size_t, std::size_t) {
    ++calls;
    throw std::runtime_error("progress boom");
  };
  const auto serial =
      run_matrix_checked(cells, serial_options, runner).series;
  EXPECT_EQ(calls, cells.size());  // every cell still reported
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(serial[i], run_experiment(cells[i]));
  }

  // Parallel: the same on the pool.
  std::atomic<std::size_t> pcalls{0};
  MatrixOptions parallel_options;
  parallel_options.jobs = 2;
  parallel_options.progress = [&](std::size_t, std::size_t) {
    ++pcalls;
    throw std::runtime_error("progress boom");
  };
  const auto parallel =
      run_matrix_checked(cells, parallel_options, runner).series;
  EXPECT_EQ(pcalls.load(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(parallel[i], serial[i]);
  }

  // Default runner: throws are counted and surfaced in the result.
  MatrixOptions options;
  options.jobs = 2;
  options.progress = [](std::size_t, std::size_t) {
    throw std::runtime_error("progress boom");
  };
  const MatrixResult checked = run_matrix_checked(cells, options);
  EXPECT_EQ(checked.progress_errors, cells.size());
  EXPECT_EQ(checked.progress_error, "progress boom");
  EXPECT_TRUE(checked.quarantined.empty());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(checked.series[i], serial[i]);
  }
}

}  // namespace
}  // namespace bnm::core

// The job runner's matrix contract: parallel output is byte-identical to
// serial for every cell, jobs=1 runs every cell on the calling thread, and
// a throwing cell never wedges the pool.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <stdexcept>
#include <vector>

#include "core/experiment.h"
#include "core/parallel_runner.h"

namespace bnm::core {
namespace {

// A mixed 12-cell matrix: HTTP + socket + plugin methods across browsers,
// OSes and variants, including an unsupported cell (IE has no WebSocket).
std::vector<ExperimentConfig> mixed_matrix(int runs = 3) {
  using B = browser::BrowserId;
  using O = browser::OsId;
  using K = methods::ProbeKind;
  struct Cell {
    B b;
    O os;
    K k;
    bool nanotime = false;
    bool appletviewer = false;
  };
  const Cell cells[] = {
      {B::kChrome, O::kUbuntu, K::kXhrGet},
      {B::kChrome, O::kUbuntu, K::kWebSocket},
      {B::kFirefox, O::kUbuntu, K::kDom},
      {B::kOpera, O::kUbuntu, K::kFlashGet},
      {B::kChrome, O::kWindows7, K::kJavaSocket},
      {B::kChrome, O::kWindows7, K::kJavaSocket, /*nanotime=*/true},
      {B::kChrome, O::kWindows7, K::kJavaSocket, false, /*appletviewer=*/true},
      {B::kFirefox, O::kWindows7, K::kXhrPost},
      {B::kIe, O::kWindows7, K::kWebSocket},  // unsupported: fails cleanly
      {B::kOpera, O::kWindows7, K::kFlashPost},
      {B::kSafari, O::kWindows7, K::kJavaUdp},
      {B::kSafari, O::kWindows7, K::kFlashSocket},
  };
  std::vector<ExperimentConfig> out;
  for (const auto& c : cells) {
    ExperimentConfig cfg;
    cfg.browser = c.b;
    cfg.os = c.os;
    cfg.kind = c.k;
    cfg.runs = runs;
    cfg.java_use_nanotime = c.nanotime;
    cfg.java_via_appletviewer = c.appletviewer;
    out.push_back(cfg);
  }
  return out;
}

void expect_identical(const OverheadSeries& a, const OverheadSeries& b) {
  EXPECT_EQ(a.case_label, b.case_label);
  EXPECT_EQ(a.method_name, b.method_name);
  EXPECT_EQ(a.failures, b.failures);
  EXPECT_EQ(a.first_error, b.first_error);
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const OverheadSample& x = a.samples[i];
    const OverheadSample& y = b.samples[i];
    // Bitwise equality, not EXPECT_DOUBLE_EQ: determinism is the contract.
    EXPECT_EQ(x.d1_ms, y.d1_ms);
    EXPECT_EQ(x.d2_ms, y.d2_ms);
    EXPECT_EQ(x.browser_rtt1_ms, y.browser_rtt1_ms);
    EXPECT_EQ(x.browser_rtt2_ms, y.browser_rtt2_ms);
    EXPECT_EQ(x.net_rtt1_ms, y.net_rtt1_ms);
    EXPECT_EQ(x.net_rtt2_ms, y.net_rtt2_ms);
    EXPECT_EQ(x.connections_opened1, y.connections_opened1);
    EXPECT_EQ(x.connections_opened2, y.connections_opened2);
  }
}

TEST(ParallelRunner, ParallelMatchesSerialElementwise) {
  const auto cells = mixed_matrix();
  const auto serial = run_matrix(cells, /*jobs=*/1);
  const auto parallel = run_matrix(cells, /*jobs=*/4);
  ASSERT_EQ(serial.size(), cells.size());
  ASSERT_EQ(parallel.size(), cells.size());
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(serial[i], parallel[i]);
  }
  // The unsupported cell (IE + WebSocket) failed identically on both paths.
  EXPECT_EQ(serial[8].failures, cells[8].runs);
  EXPECT_TRUE(serial[8].samples.empty());
}

TEST(ParallelRunner, JobsOneDegeneratesToSerialLoop) {
  auto cells = mixed_matrix();
  cells.resize(4);
  const auto via_runner = run_matrix(cells, /*jobs=*/1);
  for (std::size_t i = 0; i < cells.size(); ++i) {
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(via_runner[i], run_experiment(cells[i]));
  }
}

TEST(ParallelRunner, ProgressReportsEveryCellInOrderWhenSerial) {
  auto cells = mixed_matrix();
  cells.resize(3);
  std::vector<std::size_t> ticks;
  run_matrix(cells, 1, [&](std::size_t done, std::size_t total) {
    EXPECT_EQ(total, cells.size());
    ticks.push_back(done);
  });
  EXPECT_EQ(ticks, (std::vector<std::size_t>{1, 2, 3}));
}

TEST(ParallelRunner, ThrowingCellDoesNotWedgeThePool) {
  auto cells = mixed_matrix();
  cells.resize(6);
  cells[2].seed = 0xDEAD;  // marks the poisoned cell for the runner below

  const WatchedCellRunner faulty = [](const ExperimentConfig& cfg,
                                      CellWatchdog* wd) {
    if (cfg.seed == 0xDEAD) throw std::runtime_error("boom");
    return run_experiment_watched(cfg, wd);
  };
  MatrixOptions options;
  options.jobs = 3;
  const auto results = run_matrix_checked(cells, options, faulty).series;
  ASSERT_EQ(results.size(), cells.size());

  // The poisoned cell is reported as a full failure with the exception text.
  EXPECT_EQ(results[2].failures, cells[2].runs);
  EXPECT_TRUE(results[2].samples.empty());
  EXPECT_NE(results[2].first_error.find("boom"), std::string::npos);

  // Every other cell still ran to completion and matches its serial twin.
  for (std::size_t i = 0; i < cells.size(); ++i) {
    if (i == 2) continue;
    SCOPED_TRACE("cell " + std::to_string(i));
    expect_identical(results[i], run_experiment(cells[i]));
  }
}

TEST(ParallelRunner, EmptyMatrixIsFine) {
  EXPECT_TRUE(run_matrix({}, 4).empty());
}

TEST(ParallelRunner, ResolveJobsClampsToCellsAndFloorsAtOne) {
  EXPECT_EQ(resolve_jobs(8, 3), 3);
  EXPECT_EQ(resolve_jobs(2, 10), 2);
  EXPECT_EQ(resolve_jobs(1, 10), 1);
  EXPECT_GE(resolve_jobs(0, 10), 1);   // auto: hardware concurrency
  EXPECT_GE(resolve_jobs(-5, 10), 1);
}

TEST(ThreadPool, SurvivesThrowingTasksAndRecordsThem) {
  ThreadPool pool{4};
  std::atomic<int> ok{0};
  for (int i = 0; i < 40; ++i) {
    if (i % 4 == 0) {
      pool.submit([i] {
        throw std::runtime_error("task failure #" + std::to_string(i));
      });
    } else {
      pool.submit([&ok] { ++ok; });
    }
  }
  pool.wait_idle();
  EXPECT_EQ(ok.load(), 30);

  // Failures are structured: submission ordinal + message, not just a count.
  std::vector<TaskFailure> failures = pool.failures();
  ASSERT_EQ(failures.size(), 10u);
  std::vector<std::size_t> failed_ids;
  for (const TaskFailure& f : failures) {
    failed_ids.push_back(f.task_id);
    EXPECT_EQ(f.what, "task failure #" + std::to_string(f.task_id));
    EXPECT_EQ(f.task_id % 4, 0u);
  }
  std::sort(failed_ids.begin(), failed_ids.end());
  for (std::size_t k = 0; k < failed_ids.size(); ++k) {
    EXPECT_EQ(failed_ids[k], k * 4);
  }

  // The pool still serves new work after the failures.
  pool.submit([&ok] { ++ok; });
  pool.wait_idle();
  EXPECT_EQ(ok.load(), 31);
}

TEST(ThreadPool, WaitIdleOnFreshPoolReturnsImmediately) {
  ThreadPool pool{2};
  pool.wait_idle();
  EXPECT_TRUE(pool.failures().empty());
  EXPECT_EQ(pool.jobs(), 2);
}

}  // namespace
}  // namespace bnm::core

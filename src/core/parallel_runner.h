// The job runner behind every engine.
//
// The paper's results are a matrix of (browser x OS x method x config)
// cells, each repeated 50 times. Every Experiment owns an independent
// Testbed whose seed is derived from its config alone (experiment.cc), so
// cells share no mutable state and shard cleanly across worker threads;
// population campaigns (campaign.h) shard the same way over client ranges.
//
// run_units is the one execution loop for both. It runs unit i on the
// calling thread when the resolved jobs == 1 and on a ThreadPool otherwise,
// under a per-thread arena reset after every unit, with one contract:
// per-unit watchdogs (wall-clock deadline + simulated-event budget), retry
// with exponential backoff, quarantine with a structured CellError after
// the attempt limit, cooperative cancellation that drains gracefully, and a
// progress callback that is told about a unit only after the unit returned
// (so whatever the unit persists is durable first) and whose throws cannot
// wedge the run. It has two callers:
//
//   * run_matrix_checked — a unit is a cell; adds checkpoint/resume with
//     bit-identical reports. tools/chaos_matrix and scripts/check.sh kill
//     and resume it on every CI run. run_matrix is this with default
//     options.
//   * run_campaign (campaign.h) — a unit is a shard of clients.
#pragma once

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <deque>
#include <functional>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/experiment.h"

namespace bnm::core {

/// One swallowed task exception, in submission order. Replaces the old
/// opaque tasks_failed() counter: a wedged matrix run can now say *which*
/// task died and why instead of just how many.
struct TaskFailure {
  std::size_t task_id = 0;  ///< submission ordinal (0-based)
  std::string what;
};

/// Fixed-size worker pool. Tasks are plain closures; a task that throws is
/// recorded (failures()) and the pool keeps serving — one poisoned cell
/// must never wedge a matrix run.
class ThreadPool {
 public:
  /// jobs <= 0 selects std::thread::hardware_concurrency() (at least 1).
  explicit ThreadPool(int jobs = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int jobs() const { return jobs_; }

  void submit(std::function<void()> task);
  /// Block until every submitted task has finished.
  void wait_idle();

  /// Structured record of every task whose exception the pool swallowed,
  /// in completion order.
  std::vector<TaskFailure> failures() const;

 private:
  struct QueuedTask {
    std::size_t id;
    std::function<void()> fn;
  };

  void worker_loop();

  int jobs_ = 1;
  mutable std::mutex mu_;
  std::condition_variable task_ready_;
  std::condition_variable idle_;
  std::deque<QueuedTask> queue_;
  std::vector<std::thread> workers_;
  std::size_t next_task_id_ = 0;
  std::size_t in_flight_ = 0;
  std::vector<TaskFailure> failures_;
  bool stopping_ = false;
};

/// Per-unit completion callback: (units finished so far, total units).
/// Invoked under the runner's lock, in completion (not input) order, after
/// the unit returned. A progress callback that throws cannot wedge the run:
/// the exception is caught, counted (runner.progress_errors), and the run
/// keeps draining.
using MatrixProgress = std::function<void(std::size_t done, std::size_t total)>;

/// Cell runner for the matrix: receives the attempt's watchdog (nullptr
/// when no watchdog is configured) so the cell can be cancelled mid-flight.
/// run_matrix_checked() defaults to run_experiment_watched; tests inject
/// faulty runners.
using WatchedCellRunner =
    std::function<OverheadSeries(const ExperimentConfig&, CellWatchdog*)>;

/// Resolve a jobs request: <= 0 means hardware concurrency, and the answer
/// is clamped to [1, units] so a small run never spawns idle workers.
int resolve_jobs(int jobs, std::size_t units);

/// Why a unit ended up quarantined after exhausting its attempts.
struct CellError {
  std::size_t cell = 0;  ///< index of the unit (matrix cell or campaign shard)
  std::string what;      ///< last attempt's exception message
  /// Which guard gave up: "watchdog.wall_clock", "watchdog.event_budget",
  /// or "cell" (the unit itself threw).
  std::string where;
  int attempts = 0;  ///< attempts consumed before quarantine
};

/// Per-unit watchdog and retry policy. Default-constructed = all guards
/// off, one attempt, no retries.
struct WatchdogPolicy {
  /// Real-time budget per unit attempt; zero = no wall-clock watchdog.
  std::chrono::milliseconds wall_limit{0};
  /// Simulated-event budget per unit attempt; zero = unlimited.
  std::uint64_t event_budget = 0;
  /// Total attempts before quarantine (1 = no retries).
  int max_attempts = 1;
  /// Backoff before attempt k+1 is backoff_base * 2^(k-1).
  std::chrono::milliseconds backoff_base{10};
};

/// Checkpoint persistence policy. Empty path = checkpointing off.
struct CheckpointPolicy {
  std::string path;
  bool resume = false;  ///< load `path` first and skip hash-matching cells
  int flush_every = 1;  ///< appended cell records per journal fflush
};

struct MatrixOptions {
  int jobs = 0;  ///< <= 0 means hardware concurrency
  MatrixProgress progress;
  WatchdogPolicy watchdog;
  CheckpointPolicy checkpoint;
  /// Cooperative cancellation: when set, units not yet started are skipped
  /// and the runner drains gracefully (result.cancelled = true).
  const std::atomic<bool>* cancel = nullptr;
};

struct MatrixResult {
  /// One series per input cell, in input order. Quarantined cells carry
  /// failures == runs and first_error; resumed cells carry the stored
  /// series, bit-identical to what an uninterrupted run would produce.
  std::vector<OverheadSeries> series;
  std::vector<CellError> quarantined;  ///< sorted by cell index
  std::size_t cells_resumed = 0;       ///< taken from the checkpoint
  std::size_t cells_run = 0;           ///< executed this invocation
  std::uint64_t retries = 0;           ///< extra attempts across all cells
  std::size_t progress_errors = 0;     ///< progress-callback throws absorbed
  std::string progress_error;          ///< first progress exception message
  bool cancelled = false;              ///< stopped early via options.cancel

  bool ok() const { return quarantined.empty() && !cancelled; }
};

/// One attempt at unit `i`: run it to completion, persisting whatever it
/// persists, or throw. `watchdog` is the attempt's CellWatchdog (nullptr
/// when the policy configures none). The unit runs with an arena scope
/// active (sim::Arena::current()) that the runner resets after the unit; a
/// unit may also reset it between pieces of work that leave nothing alive
/// in it.
using UnitFn = std::function<void(std::size_t i, CellWatchdog* watchdog)>;

/// The job runner: there are skip.size() units; run every unit i whose
/// skip[i] is 0, under options' jobs, watchdog, progress and cancel
/// (options.checkpoint is the caller's business). The done count handed to
/// progress starts at the number of skipped units. Fills every MatrixResult
/// field except series and cells_resumed; cells_run counts quarantined
/// units too.
MatrixResult run_units(const std::vector<char>& skip,
                       const MatrixOptions& options, const UnitFn& unit);

/// Run the matrix on the job runner, with checkpoint/resume on top: cell i
/// is a unit, and its journal record is appended before progress hears of
/// it. A quarantined cell's series has failures == runs and a first_error
/// naming the exception or the watchdog that gave up. A checkpoint path
/// that cannot be opened throws std::runtime_error before any cell runs.
MatrixResult run_matrix_checked(const std::vector<ExperimentConfig>& cells,
                                const MatrixOptions& options = {},
                                const WatchedCellRunner& runner = nullptr);

/// run_matrix_checked with default options (one attempt, no watchdog, no
/// checkpoint): every cell's series in input order, byte-identical at any
/// job count.
std::vector<OverheadSeries> run_matrix(const std::vector<ExperimentConfig>& cells,
                                       int jobs = 0,
                                       MatrixProgress progress = nullptr);

}  // namespace bnm::core

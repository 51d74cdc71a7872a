#include "core/parallel_runner.h"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <string>
#include <utility>

#include "core/checkpoint.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/arena.h"

namespace bnm::core {
namespace {

// --- metrics (docs/OBSERVABILITY.md catalog) -------------------------------

struct RunnerMetrics {
  obs::Counter retries;
  obs::Counter quarantined;
  obs::Counter watchdog_wall_trips;
  obs::Counter watchdog_budget_trips;
  obs::Counter progress_errors;
  obs::Counter cells_resumed;

  static const RunnerMetrics& get() {
    static const RunnerMetrics m = [] {
      obs::MetricsRegistry& reg = obs::MetricsRegistry::instance();
      return RunnerMetrics{
          reg.counter("runner.retries", "attempts",
                      "cell attempts retried after a failure or watchdog trip"),
          reg.counter("runner.quarantined", "cells",
                      "cells quarantined after exhausting their attempts"),
          reg.counter("runner.watchdog_wall_trips", "trips",
                      "cell attempts cancelled by the wall-clock watchdog"),
          reg.counter("runner.watchdog_budget_trips", "trips",
                      "cell attempts cancelled by the simulated-event budget"),
          reg.counter("runner.progress_errors", "throws",
                      "progress-callback exceptions absorbed by the runner"),
          reg.counter("runner.cells_resumed", "cells",
                      "cells restored from a checkpoint instead of re-run"),
      };
    }();
    return m;
  }
};

}  // namespace

ThreadPool::ThreadPool(int jobs) {
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  jobs_ = std::max(jobs, 1);
  workers_.reserve(static_cast<std::size_t>(jobs_));
  for (int i = 0; i < jobs_; ++i) {
    workers_.emplace_back([this] { worker_loop(); });
  }
}

ThreadPool::~ThreadPool() {
  wait_idle();
  {
    std::lock_guard<std::mutex> lock{mu_};
    stopping_ = true;
  }
  task_ready_.notify_all();
  for (std::thread& w : workers_) w.join();
}

void ThreadPool::submit(std::function<void()> task) {
  {
    std::lock_guard<std::mutex> lock{mu_};
    queue_.push_back(QueuedTask{next_task_id_++, std::move(task)});
  }
  task_ready_.notify_one();
}

void ThreadPool::wait_idle() {
  std::unique_lock<std::mutex> lock{mu_};
  idle_.wait(lock, [this] { return queue_.empty() && in_flight_ == 0; });
}

std::size_t ThreadPool::cancel() {
  std::size_t dropped = 0;
  {
    std::lock_guard<std::mutex> lock{mu_};
    dropped = queue_.size();
    queue_.clear();
    if (in_flight_ == 0) idle_.notify_all();
  }
  return dropped;
}

std::vector<TaskFailure> ThreadPool::failures() const {
  std::lock_guard<std::mutex> lock{mu_};
  return failures_;
}

void ThreadPool::worker_loop() {
  std::unique_lock<std::mutex> lock{mu_};
  for (;;) {
    task_ready_.wait(lock, [this] { return stopping_ || !queue_.empty(); });
    if (queue_.empty()) return;  // stopping_ and drained
    QueuedTask task = std::move(queue_.front());
    queue_.pop_front();
    ++in_flight_;
    lock.unlock();
    try {
      task.fn();
    } catch (const std::exception& e) {
      lock.lock();
      failures_.push_back(TaskFailure{task.id, e.what()});
      lock.unlock();
    } catch (...) {
      lock.lock();
      failures_.push_back(TaskFailure{task.id, "non-standard exception"});
      lock.unlock();
    }
    lock.lock();
    --in_flight_;
    if (queue_.empty() && in_flight_ == 0) idle_.notify_all();
  }
}

int resolve_jobs(int jobs, std::size_t cells) {
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  jobs = std::max(jobs, 1);
  if (cells > 0) {
    jobs = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(jobs), cells));
  }
  return jobs;
}

namespace {

OverheadSeries run_cell_guarded(const ExperimentConfig& config,
                                const CellRunner& cell) {
  BNM_PROF_SCOPE("matrix.cell");
  try {
    return cell(config);
  } catch (const std::exception& e) {
    OverheadSeries failed;
    failed.config = config;
    failed.failures = config.runs;
    failed.first_error = std::string{"uncaught exception: "} + e.what();
    return failed;
  } catch (...) {
    OverheadSeries failed;
    failed.config = config;
    failed.failures = config.runs;
    failed.first_error = "uncaught exception (non-standard)";
    return failed;
  }
}

/// Invoke the user's progress callback without letting it take the run
/// down: the exception is counted and (optionally) recorded, and the
/// matrix keeps draining. Caller already holds whatever lock serializes
/// progress invocations.
void call_progress_guarded(const MatrixProgress& progress, std::size_t done,
                           std::size_t total,
                           std::size_t* error_count = nullptr,
                           std::string* first_error = nullptr) {
  if (!progress) return;
  try {
    progress(done, total);
  } catch (const std::exception& e) {
    RunnerMetrics::get().progress_errors.add();
    if (error_count) ++*error_count;
    if (first_error && first_error->empty()) *first_error = e.what();
  } catch (...) {
    RunnerMetrics::get().progress_errors.add();
    if (error_count) ++*error_count;
    if (first_error && first_error->empty()) {
      *first_error = "non-standard exception";
    }
  }
}

}  // namespace

std::vector<OverheadSeries> run_matrix_with(
    const std::vector<ExperimentConfig>& cells, int jobs,
    const CellRunner& cell, MatrixProgress progress) {
  std::vector<OverheadSeries> results(cells.size());
  if (cells.empty()) return results;

  jobs = resolve_jobs(jobs, cells.size());
  if (jobs == 1) {
    // Degenerate serial path: same per-cell computation on the calling
    // thread — the reference the parallel path must match byte for byte.
    // One arena serves every cell, rewound wholesale between cells (the
    // cell's testbed — and with it everything arena-allocated — is gone by
    // the time run_cell_guarded returns; the result series itself uses the
    // global allocator).
    sim::Arena arena;
    sim::ArenaScope scope{&arena};
    for (std::size_t i = 0; i < cells.size(); ++i) {
      results[i] = run_cell_guarded(cells[i], cell);
      arena.reset();
      call_progress_guarded(progress, i + 1, cells.size());
    }
    return results;
  }

  ThreadPool pool{jobs};
  std::mutex progress_mu;
  std::size_t done = 0;
  for (std::size_t i = 0; i < cells.size(); ++i) {
    pool.submit([&, i] {
      // Each worker thread keeps a private arena: matrix shards bump their
      // own slabs instead of contending on the global allocator, and a
      // wholesale reset between cells replaces per-packet frees.
      thread_local sim::Arena worker_arena;
      sim::ArenaScope scope{&worker_arena};
      results[i] = run_cell_guarded(cells[i], cell);
      worker_arena.reset();
      std::lock_guard<std::mutex> lock{progress_mu};
      call_progress_guarded(progress, ++done, cells.size());
    });
  }
  pool.wait_idle();
  return results;
}

std::vector<OverheadSeries> run_matrix(const std::vector<ExperimentConfig>& cells,
                                       int jobs, MatrixProgress progress) {
  return run_matrix_with(
      cells, jobs,
      [](const ExperimentConfig& config) { return run_experiment(config); },
      std::move(progress));
}

// ---------------------------------------------------------------------------
// The crash-safe engine.

namespace {

/// One shared deadline thread per run_matrix_checked invocation: workers
/// arm their attempt's CellWatchdog with a steady-clock deadline; the host
/// wakes at the earliest one and sets wall_expired (one-shot). Lazy — a run
/// with no wall limit never spawns the thread.
class WatchdogHost {
 public:
  ~WatchdogHost() {
    {
      std::lock_guard<std::mutex> lock{mu_};
      stop_ = true;
    }
    cv_.notify_all();
    if (thread_.joinable()) thread_.join();
  }

  std::uint64_t arm(CellWatchdog* watchdog,
                    std::chrono::steady_clock::time_point deadline) {
    std::uint64_t token = 0;
    {
      std::lock_guard<std::mutex> lock{mu_};
      token = next_token_++;
      armed_[token] = Entry{watchdog, deadline};
      if (!thread_.joinable()) {
        thread_ = std::thread{[this] { loop(); }};
      }
    }
    cv_.notify_all();
    return token;
  }

  void disarm(std::uint64_t token) {
    std::lock_guard<std::mutex> lock{mu_};
    armed_.erase(token);
  }

 private:
  struct Entry {
    CellWatchdog* watchdog = nullptr;
    std::chrono::steady_clock::time_point deadline;
  };

  void loop() {
    std::unique_lock<std::mutex> lock{mu_};
    while (!stop_) {
      if (armed_.empty()) {
        cv_.wait(lock, [this] { return stop_ || !armed_.empty(); });
        continue;
      }
      auto next = std::chrono::steady_clock::time_point::max();
      for (const auto& [token, e] : armed_) {
        next = std::min(next, e.deadline);
      }
      if (cv_.wait_until(lock, next,
                         [this] { return stop_; })) {
        return;
      }
      const auto now = std::chrono::steady_clock::now();
      for (auto it = armed_.begin(); it != armed_.end();) {
        if (it->second.deadline <= now) {
          it->second.watchdog->wall_expired.store(true,
                                                  std::memory_order_release);
          it = armed_.erase(it);
        } else {
          ++it;
        }
      }
    }
  }

  std::mutex mu_;
  std::condition_variable cv_;
  std::map<std::uint64_t, Entry> armed_;
  std::uint64_t next_token_ = 0;
  std::thread thread_;
  bool stop_ = false;
};

/// Shared mutable state of one engine invocation.
struct EngineState {
  const std::vector<ExperimentConfig>* cells = nullptr;
  const MatrixOptions* options = nullptr;
  const WatchedCellRunner* runner = nullptr;
  MatrixResult* result = nullptr;
  CheckpointWriter* writer = nullptr;  ///< nullptr = checkpointing off
  WatchdogHost* host = nullptr;        ///< nullptr = no wall watchdog

  std::mutex mu;  ///< guards result->quarantined/retries/..., done
  std::size_t done = 0;
};

bool cancel_requested(const EngineState& st) {
  return st.options->cancel != nullptr &&
         st.options->cancel->load(std::memory_order_acquire);
}

/// Run one cell under the attempt/retry/quarantine policy. Called on a
/// worker (or the calling thread when jobs == 1) with an arena scope
/// already active.
void run_cell_checked(EngineState& st, std::size_t i) {
  const ExperimentConfig& config = (*st.cells)[i];
  const WatchdogPolicy& wd = st.options->watchdog;
  const int max_attempts = std::max(wd.max_attempts, 1);
  const bool watched = wd.wall_limit.count() > 0 || wd.event_budget > 0;
  const RunnerMetrics& metrics = RunnerMetrics::get();

  std::string last_what;
  std::string last_where;
  bool completed = false;

  for (int attempt = 1; attempt <= max_attempts; ++attempt) {
    CellWatchdog watchdog;
    watchdog.event_budget = wd.event_budget;
    std::uint64_t token = 0;
    const bool armed = st.host != nullptr && wd.wall_limit.count() > 0;
    if (armed) {
      token = st.host->arm(&watchdog,
                           std::chrono::steady_clock::now() + wd.wall_limit);
    }
    try {
      BNM_PROF_SCOPE("matrix.cell");
      OverheadSeries series =
          (*st.runner)(config, watched ? &watchdog : nullptr);
      if (armed) st.host->disarm(token);
      st.result->series[i] = std::move(series);
      completed = true;
      break;
    } catch (const CellAbortError& e) {
      if (armed) st.host->disarm(token);
      last_what = e.what();
      last_where = e.where();
      if (last_where == "watchdog.wall_clock") {
        metrics.watchdog_wall_trips.add();
      } else if (last_where == "watchdog.event_budget") {
        metrics.watchdog_budget_trips.add();
      }
    } catch (const std::exception& e) {
      if (armed) st.host->disarm(token);
      last_what = e.what();
      last_where = "cell";
    } catch (...) {
      if (armed) st.host->disarm(token);
      last_what = "non-standard exception";
      last_where = "cell";
    }
    if (attempt < max_attempts) {
      metrics.retries.add();
      {
        std::lock_guard<std::mutex> lock{st.mu};
        ++st.result->retries;
      }
      if (wd.backoff_base.count() > 0) {
        std::this_thread::sleep_for(wd.backoff_base * (1 << (attempt - 1)));
      }
    }
  }

  if (completed) {
    // Persist before announcing: a crash inside the progress callback (the
    // chaos harness's hard-kill point) must find the cell already on disk.
    if (st.writer != nullptr) st.writer->add(i, config, st.result->series[i]);
  } else {
    OverheadSeries failed;
    failed.config = config;
    failed.failures = config.runs;
    // Same first_error shape as run_matrix's run_cell_guarded for a plain
    // throw, so the engine with watchdogs off stays byte-identical to the
    // legacy path even on deterministically-failing cells; watchdog trips
    // name the guard instead.
    if (last_where == "cell") {
      failed.first_error = last_what == "non-standard exception"
                               ? "uncaught exception (non-standard)"
                               : "uncaught exception: " + last_what;
    } else {
      failed.first_error = last_where + ": " + last_what;
    }
    st.result->series[i] = std::move(failed);
    metrics.quarantined.add();
    std::lock_guard<std::mutex> lock{st.mu};
    st.result->quarantined.push_back(
        CellError{i, last_what, last_where, max_attempts});
    // Quarantined cells are deliberately NOT checkpointed: a resumed run
    // gets a fresh set of attempts at them.
  }

  std::lock_guard<std::mutex> lock{st.mu};
  ++st.result->cells_run;
  call_progress_guarded(st.options->progress, ++st.done, st.cells->size(),
                        &st.result->progress_errors,
                        &st.result->progress_error);
}

}  // namespace

MatrixResult run_matrix_checked(const std::vector<ExperimentConfig>& cells,
                                const MatrixOptions& options,
                                const WatchedCellRunner& runner) {
  MatrixResult result;
  result.series.resize(cells.size());
  if (cells.empty()) return result;

  const WatchedCellRunner default_runner =
      [](const ExperimentConfig& config, CellWatchdog* watchdog) {
        return run_experiment_watched(config, watchdog);
      };
  const WatchedCellRunner& cell = runner ? runner : default_runner;

  // Resume: restore hash-matching cells and carry their records into the
  // freshly opened journal, which drops stale and torn records.
  std::unique_ptr<CheckpointWriter> writer;
  std::vector<char> resumed(cells.size(), 0);
  if (!options.checkpoint.path.empty()) {
    std::vector<CheckpointRecord> carried;
    if (options.checkpoint.resume) {
      std::optional<CheckpointReader> reader =
          CheckpointReader::load(options.checkpoint.path);
      if (reader) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const OverheadSeries* stored = reader->lookup(i, cells[i]);
          if (stored == nullptr) continue;
          result.series[i] = *stored;
          result.series[i].config = cells[i];
          resumed[i] = 1;
          ++result.cells_resumed;
          carried.push_back({i, cell_config_hash_hex(cells[i]), *stored});
        }
        RunnerMetrics::get().cells_resumed.add(result.cells_resumed);
      }
    }
    writer = std::make_unique<CheckpointWriter>(
        options.checkpoint.path, cells.size(), options.checkpoint.flush_every,
        carried);
  }

  WatchdogHost host;
  EngineState st;
  st.cells = &cells;
  st.options = &options;
  st.runner = &cell;
  st.result = &result;
  st.writer = writer.get();
  st.host = options.watchdog.wall_limit.count() > 0 ? &host : nullptr;
  st.done = result.cells_resumed;

  const int jobs = resolve_jobs(options.jobs, cells.size());
  if (jobs == 1) {
    sim::Arena arena;
    sim::ArenaScope scope{&arena};
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (resumed[i]) continue;
      if (cancel_requested(st)) {
        result.cancelled = true;
        break;
      }
      run_cell_checked(st, i);
      arena.reset();
    }
  } else {
    ThreadPool pool{jobs};
    for (std::size_t i = 0; i < cells.size(); ++i) {
      if (resumed[i]) continue;
      pool.submit([&st, i] {
        if (cancel_requested(st)) {
          std::lock_guard<std::mutex> lock{st.mu};
          st.result->cancelled = true;
          return;  // graceful drain: skip, let in-flight cells finish
        }
        thread_local sim::Arena worker_arena;
        sim::ArenaScope scope{&worker_arena};
        run_cell_checked(st, i);
        worker_arena.reset();
      });
    }
    pool.wait_idle();
  }

  std::sort(result.quarantined.begin(), result.quarantined.end(),
            [](const CellError& a, const CellError& b) {
              return a.cell < b.cell;
            });
  return result;  // ~CheckpointWriter flushes any flush_every remainder
}

}  // namespace bnm::core

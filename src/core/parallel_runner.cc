#include "core/parallel_runner.h"

#include <algorithm>
#include <exception>
#include <map>
#include <memory>
#include <optional>
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
                      "unit attempts retried after a failure or watchdog trip"),
          reg.counter("runner.quarantined", "cells",
                      "units quarantined after exhausting their attempts"),
          reg.counter("runner.watchdog_wall_trips", "trips",
                      "unit attempts cancelled by the wall-clock watchdog"),
          reg.counter("runner.watchdog_budget_trips", "trips",
                      "unit attempts cancelled by the simulated-event budget"),
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

int resolve_jobs(int jobs, std::size_t units) {
  if (jobs <= 0) {
    jobs = static_cast<int>(std::thread::hardware_concurrency());
  }
  jobs = std::max(jobs, 1);
  if (units > 0) {
    jobs = static_cast<int>(
        std::min<std::size_t>(static_cast<std::size_t>(jobs), units));
  }
  return jobs;
}

// ---------------------------------------------------------------------------
// The job runner.

namespace {

/// One shared deadline thread per run_units invocation: workers
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

/// Shared mutable state of one run_units invocation.
struct Runner {
  const MatrixOptions& options;
  const UnitFn& unit;
  std::size_t units = 0;
  WatchdogHost* host = nullptr;  ///< nullptr = no wall watchdog
  MatrixResult& result;

  std::mutex mu;  ///< guards result and done
  std::size_t done = 0;

  /// Run unit i under the attempt/retry/quarantine policy, then announce
  /// it. Called on a worker (or the calling thread when jobs == 1) with an
  /// arena scope already active.
  void run(std::size_t i);
};

void Runner::run(std::size_t i) {
  if (options.cancel != nullptr &&
      options.cancel->load(std::memory_order_acquire)) {
    std::lock_guard<std::mutex> lock{mu};
    result.cancelled = true;
    return;  // graceful drain: skip, let in-flight units finish
  }
  const WatchdogPolicy& wd = options.watchdog;
  const int max_attempts = std::max(wd.max_attempts, 1);
  const bool watched = wd.wall_limit.count() > 0 || wd.event_budget > 0;
  const RunnerMetrics& metrics = RunnerMetrics::get();

  std::string last_what;
  std::string last_where;
  bool completed = false;
  for (int attempt = 1;; ++attempt) {
    CellWatchdog watchdog;
    watchdog.event_budget = wd.event_budget;
    std::uint64_t token = 0;
    if (host != nullptr) {
      token = host->arm(&watchdog,
                        std::chrono::steady_clock::now() + wd.wall_limit);
    }
    try {
      unit(i, watched ? &watchdog : nullptr);
      completed = true;
    } catch (const CellAbortError& e) {
      last_what = e.what();
      last_where = e.where();
      if (last_where == "watchdog.wall_clock") {
        metrics.watchdog_wall_trips.add();
      } else if (last_where == "watchdog.event_budget") {
        metrics.watchdog_budget_trips.add();
      }
    } catch (const std::exception& e) {
      last_what = e.what();
      last_where = "cell";
    } catch (...) {
      last_what = "non-standard exception";
      last_where = "cell";
    }
    if (host != nullptr) host->disarm(token);
    if (completed || attempt == max_attempts) break;
    metrics.retries.add();
    {
      std::lock_guard<std::mutex> lock{mu};
      ++result.retries;
    }
    if (wd.backoff_base.count() > 0) {
      std::this_thread::sleep_for(wd.backoff_base * (1 << (attempt - 1)));
    }
  }
  if (!completed) metrics.quarantined.add();

  std::lock_guard<std::mutex> lock{mu};
  if (!completed) {
    result.quarantined.push_back(
        CellError{i, last_what, last_where, max_attempts});
  }
  ++result.cells_run;
  ++done;
  if (!options.progress) return;
  try {
    options.progress(done, units);
  } catch (const std::exception& e) {
    metrics.progress_errors.add();
    if (result.progress_errors++ == 0) result.progress_error = e.what();
  } catch (...) {
    metrics.progress_errors.add();
    if (result.progress_errors++ == 0) {
      result.progress_error = "non-standard exception";
    }
  }
}

}  // namespace

MatrixResult run_units(const std::vector<char>& skip,
                       const MatrixOptions& options, const UnitFn& unit) {
  const std::size_t units = skip.size();
  MatrixResult result;
  if (units == 0) return result;
  WatchdogHost host;
  const auto skipped = static_cast<std::size_t>(
      std::count_if(skip.begin(), skip.end(), [](char s) { return s != 0; }));
  Runner runner{options, unit, units,
                options.watchdog.wall_limit.count() > 0 ? &host : nullptr,
                result, {}, skipped};

  // Everything a unit allocates from the arena dies with the unit (a cell's
  // testbed is gone by the time it returns; results use the global
  // allocator), so the arena is rewound wholesale after every unit.
  const auto run_in = [&runner](sim::Arena& arena, std::size_t i) {
    sim::ArenaScope scope{&arena};
    runner.run(i);
    arena.reset();
  };
  const int jobs = resolve_jobs(options.jobs, units);
  if (jobs == 1) {
    sim::Arena arena;
    for (std::size_t i = 0; i < units; ++i) {
      if (!skip[i]) run_in(arena, i);
    }
  } else {
    ThreadPool pool{jobs};
    for (std::size_t i = 0; i < units; ++i) {
      if (skip[i]) continue;
      pool.submit([&run_in, i] {
        // Each worker thread keeps a private arena: units bump their own
        // slabs instead of contending on the global allocator.
        thread_local sim::Arena worker_arena;
        run_in(worker_arena, i);
      });
    }
    pool.wait_idle();
  }

  std::sort(result.quarantined.begin(), result.quarantined.end(),
            [](const CellError& a, const CellError& b) {
              return a.cell < b.cell;
            });
  return result;
}

MatrixResult run_matrix_checked(const std::vector<ExperimentConfig>& cells,
                                const MatrixOptions& options,
                                const WatchedCellRunner& runner) {
  const WatchedCellRunner default_runner =
      [](const ExperimentConfig& config, CellWatchdog* watchdog) {
        return run_experiment_watched(config, watchdog);
      };
  const WatchedCellRunner& cell = runner ? runner : default_runner;
  std::vector<OverheadSeries> series(cells.size());

  // Resume: restore hash-matching cells and carry their records into the
  // freshly opened journal, which drops stale and torn records.
  std::unique_ptr<CheckpointWriter> writer;
  std::vector<char> resumed(cells.size(), 0);
  std::size_t cells_resumed = 0;
  if (!options.checkpoint.path.empty()) {
    std::vector<CheckpointRecord> carried;
    if (options.checkpoint.resume) {
      std::optional<CheckpointReader> reader =
          CheckpointReader::load(options.checkpoint.path);
      if (reader) {
        for (std::size_t i = 0; i < cells.size(); ++i) {
          const OverheadSeries* stored = reader->lookup(i, cells[i]);
          if (stored == nullptr) continue;
          series[i] = *stored;
          series[i].config = cells[i];
          resumed[i] = 1;
          ++cells_resumed;
          carried.push_back({i, cell_config_hash_hex(cells[i]), *stored});
        }
        RunnerMetrics::get().cells_resumed.add(cells_resumed);
      }
    }
    writer = std::make_unique<CheckpointWriter>(
        options.checkpoint.path, cells.size(), options.checkpoint.flush_every,
        carried);
  }

  MatrixResult result = run_units(
      resumed, options, [&](std::size_t i, CellWatchdog* watchdog) {
        {
          BNM_PROF_SCOPE("matrix.cell");
          series[i] = cell(cells[i], watchdog);
        }
        // Persist before the runner announces the cell: a crash inside the
        // progress callback (the chaos harness's hard-kill point) must find
        // the cell already on disk.
        if (writer) writer->add(i, cells[i], series[i]);
      });

  // Quarantined cells are deliberately NOT checkpointed: a resumed run gets
  // a fresh set of attempts at them. A plain throw reads "uncaught
  // exception: ..."; a watchdog trip names the guard.
  for (const CellError& e : result.quarantined) {
    OverheadSeries failed;
    failed.config = cells[e.cell];
    failed.failures = cells[e.cell].runs;
    if (e.where == "cell") {
      failed.first_error = e.what == "non-standard exception"
                               ? "uncaught exception (non-standard)"
                               : "uncaught exception: " + e.what;
    } else {
      failed.first_error = e.where + ": " + e.what;
    }
    series[e.cell] = std::move(failed);
  }
  result.series = std::move(series);
  result.cells_resumed = cells_resumed;
  return result;  // ~CheckpointWriter flushes any flush_every remainder
}

std::vector<OverheadSeries> run_matrix(const std::vector<ExperimentConfig>& cells,
                                       int jobs, MatrixProgress progress) {
  MatrixOptions options;
  options.jobs = jobs;
  options.progress = std::move(progress);
  return run_matrix_checked(cells, options).series;
}

}  // namespace bnm::core

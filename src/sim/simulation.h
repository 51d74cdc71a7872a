// Simulation context: bundles the scheduler, root RNG and trace log that a
// testbed shares. Components hold a Simulation& and never own global state,
// so many independent simulations can coexist in one process (gtest shards,
// google-benchmark iterations, parameter sweeps).
#pragma once

#include "sim/arena.h"
#include "sim/random.h"
#include "sim/scheduler.h"
#include "sim/trace.h"

namespace bnm::sim {

class Simulation {
 public:
  explicit Simulation(std::uint64_t seed = 1) : root_rng_{seed} {
    // Dispatch spans ("scheduler"/"dispatch") fire only while the trace is
    // enabled; wiring the pointer up front costs nothing otherwise.
    scheduler_.set_trace(&trace_);
  }

  Scheduler& scheduler() { return scheduler_; }
  const Scheduler& scheduler() const { return scheduler_; }
  Trace& trace() { return trace_; }

  /// The simulation's bump arena (see sim/arena.h). Components and Payload
  /// buffers allocate from it while an ArenaScope over it is installed
  /// (core::Experiment::run does this; the matrix runner substitutes
  /// per-worker arenas). Lazily chunked: costs nothing if never scoped.
  Arena& arena() { return arena_; }

  TimePoint now() const { return scheduler_.now(); }

  /// Independent RNG stream for a named component.
  Rng rng_for(std::string_view label) const { return root_rng_.fork(label); }

 private:
  // Declared first so it is destroyed last: pending scheduler entries can
  // hold arena-backed state (payload views, packets in flight) until the
  // scheduler itself is torn down.
  Arena arena_;
  Scheduler scheduler_;
  Rng root_rng_;
  Trace trace_;
};

}  // namespace bnm::sim

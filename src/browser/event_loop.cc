#include "browser/event_loop.h"

#include <algorithm>
#include <utility>

namespace bnm::browser {

EventLoop::EventLoop(sim::Simulation& sim, std::string name)
    : sim_{sim}, name_{std::move(name)} {}

void EventLoop::post(sim::Duration dispatch_latency, std::function<void()> task) {
  if (dispatch_latency.is_negative()) dispatch_latency = sim::Duration::zero();
  sim_.scheduler().post_after(
      dispatch_latency,
      [this, task = std::move(task)] { try_run(task); });
}

void EventLoop::try_run(const std::function<void()>& task) {
  if (sim_.now() < busy_until_) {
    // Main thread occupied: wait for the running task to finish. Scheduler
    // sequence numbers keep ready tasks FIFO.
    sim_.scheduler().post_at(busy_until_, [this, task] { try_run(task); });
    return;
  }
  busy_until_ = sim_.now() + task_cost_;
  ++tasks_run_;
  task();
}

}  // namespace bnm::browser

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "sim/scheduler.h"

namespace bnm::sim {
namespace {

TEST(Scheduler, StartsAtEpoch) {
  Scheduler s;
  EXPECT_EQ(s.now(), TimePoint::epoch());
}

TEST(Scheduler, ExecutesInTimeOrder) {
  Scheduler s;
  std::vector<int> order;
  s.schedule_after(Duration::millis(3), [&] { order.push_back(3); });
  s.schedule_after(Duration::millis(1), [&] { order.push_back(1); });
  s.schedule_after(Duration::millis(2), [&] { order.push_back(2); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(s.now(), TimePoint::epoch() + Duration::millis(3));
}

TEST(Scheduler, SameInstantIsFifo) {
  Scheduler s;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    s.schedule_after(Duration::millis(5), [&order, i] { order.push_back(i); });
  }
  s.run();
  for (int i = 0; i < 10; ++i) EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
}

TEST(Scheduler, NestedSchedulingFromCallback) {
  Scheduler s;
  std::vector<double> times;
  s.schedule_after(Duration::millis(1), [&] {
    times.push_back(s.now().ms_since_epoch_f());
    s.schedule_after(Duration::millis(2), [&] {
      times.push_back(s.now().ms_since_epoch_f());
    });
  });
  s.run();
  ASSERT_EQ(times.size(), 2u);
  EXPECT_DOUBLE_EQ(times[0], 1.0);
  EXPECT_DOUBLE_EQ(times[1], 3.0);
}

TEST(Scheduler, CancelPreventsExecution) {
  Scheduler s;
  bool ran = false;
  auto h = s.schedule_after(Duration::millis(1), [&] { ran = true; });
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
  s.run();
  EXPECT_FALSE(ran);
}

TEST(Scheduler, CancelIsIdempotentAndPostFireSafe) {
  Scheduler s;
  auto h = s.schedule_after(Duration::millis(1), [] {});
  s.run();
  EXPECT_FALSE(h.pending());
  h.cancel();  // no-op after firing
  h.cancel();
}

TEST(Scheduler, DefaultHandleIsInert) {
  EventHandle h;
  EXPECT_FALSE(h.pending());
  h.cancel();
}

TEST(Scheduler, NegativeDelayClampsToNow) {
  Scheduler s;
  s.schedule_after(Duration::millis(5), [] {});
  s.run();
  TimePoint fired;
  s.schedule_after(Duration::millis(-10), [&] { fired = s.now(); });
  s.run();
  EXPECT_EQ(fired, TimePoint::epoch() + Duration::millis(5));
}

TEST(Scheduler, ScheduleAtPastClampsToNow) {
  Scheduler s;
  s.schedule_after(Duration::millis(5), [] {});
  s.run();
  TimePoint fired;
  s.schedule_at(TimePoint::epoch(), [&] { fired = s.now(); });
  s.run();
  EXPECT_EQ(fired, s.now());
}

TEST(Scheduler, RunUntilStopsAtDeadlineAndAdvancesClock) {
  Scheduler s;
  int ran = 0;
  s.schedule_after(Duration::millis(1), [&] { ++ran; });
  s.schedule_after(Duration::millis(10), [&] { ++ran; });
  s.run_until(TimePoint::epoch() + Duration::millis(5));
  EXPECT_EQ(ran, 1);
  EXPECT_EQ(s.now(), TimePoint::epoch() + Duration::millis(5));
  s.run();
  EXPECT_EQ(ran, 2);
}

TEST(Scheduler, RunUntilExecutesEventExactlyAtDeadline) {
  Scheduler s;
  int ran = 0;
  s.schedule_after(Duration::millis(5), [&] { ++ran; });
  s.run_until(TimePoint::epoch() + Duration::millis(5));
  EXPECT_EQ(ran, 1);
}

TEST(Scheduler, StepReturnsFalseWhenEmpty) {
  Scheduler s;
  EXPECT_FALSE(s.step());
  s.schedule_after(Duration::zero(), [] {});
  EXPECT_TRUE(s.step());
  EXPECT_FALSE(s.step());
}

TEST(Scheduler, PendingEventsCountsLiveOnly) {
  Scheduler s;
  auto h1 = s.schedule_after(Duration::millis(1), [] {});
  s.schedule_after(Duration::millis(2), [] {});
  EXPECT_EQ(s.pending_events(), 2u);
  h1.cancel();
  EXPECT_EQ(s.pending_events(), 1u);
}

TEST(Scheduler, ClearDropsEverything) {
  Scheduler s;
  bool ran = false;
  s.schedule_after(Duration::millis(1), [&] { ran = true; });
  s.clear();
  s.run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(Scheduler, ExecutedEventsCounter) {
  Scheduler s;
  for (int i = 0; i < 5; ++i) s.schedule_after(Duration::millis(i), [] {});
  s.run();
  EXPECT_EQ(s.executed_events(), 5u);
}

TEST(Scheduler, ManyEventsStressOrdering) {
  Scheduler s;
  TimePoint last;
  int count = 0;
  for (int i = 0; i < 5000; ++i) {
    s.schedule_after(Duration::micros((i * 7919) % 100000), [&] {
      EXPECT_GE(s.now(), last);
      last = s.now();
      ++count;
    });
  }
  s.run();
  EXPECT_EQ(count, 5000);
}

// ---- calendar-queue edge cases ----

TEST(Scheduler, SameInstantFifoAcrossBucketBoundaries) {
  // Clusters of same-instant events straddling bucket edges: one just
  // before, one exactly on, one just after each of several edges. Global
  // order must be by time, FIFO within an instant, regardless of which
  // bucket (or which side of a promotion) each cluster lands in.
  Scheduler s;
  const Duration w = Scheduler::bucket_width();
  std::vector<std::pair<std::int64_t, int>> fired;
  int tag = 0;
  for (int edge = 1; edge <= 4; ++edge) {
    for (const Duration at :
         {w * edge - Duration::nanos(1), w * edge, w * edge + Duration::nanos(1)}) {
      for (int k = 0; k < 3; ++k) {
        s.schedule_at(TimePoint::epoch() + at, [&s, &fired, t = tag++] {
          fired.emplace_back(s.now().ns_since_epoch(), t);
        });
      }
    }
  }
  s.run();
  ASSERT_EQ(fired.size(), static_cast<std::size_t>(tag));
  for (std::size_t i = 1; i < fired.size(); ++i) {
    EXPECT_GE(fired[i].first, fired[i - 1].first);
    if (fired[i].first == fired[i - 1].first) {
      EXPECT_EQ(fired[i].second, fired[i - 1].second + 1);
    }
  }
  // Scheduling order was monotone in time here, so firing order is exactly
  // scheduling order.
  for (std::size_t i = 0; i < fired.size(); ++i) {
    EXPECT_EQ(fired[i].second, static_cast<int>(i));
  }
}

TEST(Scheduler, CancelEventAlreadyStagedInBatch) {
  // The victim shares an instant (and therefore a batch) with its killer:
  // by the time the cancel runs, the victim is already staged in the
  // bottom vector. It must be skipped, not fired.
  Scheduler s;
  bool victim_ran = false;
  EventHandle victim;
  s.schedule_after(Duration::millis(1), [&] { victim.cancel(); });
  victim = s.schedule_after(Duration::millis(1), [&] { victim_ran = true; });
  bool after_ran = false;
  s.schedule_after(Duration::millis(1), [&] { after_ran = true; });
  s.run();
  EXPECT_FALSE(victim_ran);
  EXPECT_TRUE(after_ran);  // later same-instant events still fire
  EXPECT_FALSE(victim.pending());
  EXPECT_EQ(s.executed_events(), 2u);  // cancelled entry is not "executed"
}

TEST(Scheduler, RunUntilExactlyOnBucketEdge) {
  Scheduler s;
  const Duration w = Scheduler::bucket_width();
  const TimePoint edge = TimePoint::epoch() + w * 3;
  int ran = 0;
  s.schedule_at(edge - Duration::nanos(1), [&] { ++ran; });
  s.schedule_at(edge, [&] { ++ran; });              // exactly at the deadline
  s.schedule_at(edge + Duration::nanos(1), [&] { ++ran; });  // next bucket
  s.run_until(edge);
  EXPECT_EQ(ran, 2);  // deadline is inclusive
  EXPECT_EQ(s.now(), edge);
  EXPECT_EQ(s.pending_events(), 1u);
  s.run();
  EXPECT_EQ(ran, 3);
  EXPECT_EQ(s.now(), edge + Duration::nanos(1));
}

TEST(Scheduler, EpochRolloverWithFarFutureEvents) {
  // Events far beyond the ring horizon (kBuckets * width) park in the
  // overflow heap and must migrate into the ring lazily as the epoch
  // advances, interleaving correctly with near-future work.
  Scheduler s;
  const Duration horizon = Scheduler::bucket_width() * Scheduler::kBuckets;
  std::vector<int> order;
  s.schedule_after(horizon * 3 + Duration::micros(7), [&] { order.push_back(4); });
  s.schedule_after(horizon + Duration::micros(1), [&] {
    order.push_back(2);
    // Nested far-future event, scheduled after the first rollover.
    s.schedule_after(horizon, [&] { order.push_back(3); });
  });
  s.schedule_after(Duration::micros(5), [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(),
            TimePoint::epoch() + horizon * 3 + Duration::micros(7));
}

TEST(Scheduler, HandleOutlivesScheduler) {
  EventHandle h;
  {
    Scheduler s;
    h = s.schedule_after(Duration::millis(1), [] {});
    EXPECT_TRUE(h.pending());
  }
  // The pool outlives the scheduler; the unfired event still reads as
  // pending (same contract the shared_ptr<bool> tokens had) and cancel is
  // safe.
  EXPECT_TRUE(h.pending());
  h.cancel();
  EXPECT_FALSE(h.pending());
}

TEST(Scheduler, StepBatchFiresWholeBucketAndCountsBatches) {
  Scheduler s;
  int ran = 0;
  for (int i = 0; i < 8; ++i) {
    s.schedule_after(Duration::micros(1), [&] { ++ran; });
  }
  s.schedule_after(Duration::millis(1), [&] { ++ran; });
  EXPECT_EQ(s.step_batch(), 8u);  // the whole first bucket, one call
  EXPECT_EQ(ran, 8);
  EXPECT_EQ(s.step_batch(), 1u);
  EXPECT_EQ(s.step_batch(), 0u);  // empty queue
  EXPECT_EQ(s.executed_batches(), 2u);
}

// Order-property oracle for the calendar queue. It needs no reference
// queue: the oracle numbers every scheduling call itself, in the order the
// calls are made, so the kernel's promise reads directly as "fired
// (at, number) pairs strictly increase, each at its requested instant".
struct OrderOracle {
  struct Event {
    TimePoint at;  ///< requested instant
    bool cancelled = false;
    int fired = 0;
  };
  static constexpr std::size_t kMaxEvents = 3000;

  explicit OrderOracle(Scheduler& sched) : s{sched} {}

  std::uint64_t next() {  // xorshift64
    rng ^= rng << 13;
    rng ^= rng >> 7;
    rng ^= rng << 17;
    return rng;
  }
  std::int64_t below(std::int64_t n) {
    return static_cast<std::int64_t>(next() % static_cast<std::uint64_t>(n));
  }
  /// Whole-millisecond instants tie across events scheduled from different
  /// now()s; random nanosecond delays almost never do.
  TimePoint ms_boundary_after(std::int64_t extra_ms) const {
    constexpr std::int64_t kMs = 1'000'000;
    return TimePoint::from_ns((s.now().ns_since_epoch() / kMs + 1 + extra_ms) *
                              kMs);
  }

  /// Delay mix: the ring, past the ~16.8 ms horizon into the overflow tier,
  /// onto whole milliseconds, inside the active bucket (merge-inserted when
  /// scheduled from a callback) and at now() itself.
  Duration delay() {
    switch (next() % 5) {
      case 0:
        return Duration::nanos(below(12'000'000));
      case 1:
        return Duration::nanos(17'000'000 + below(30'000'000));
      case 2:
        return ms_boundary_after(below(20)) - s.now();
      case 3:
        return Duration::nanos(below(Scheduler::bucket_width().ns()));
      default:
        return Duration::zero();
    }
  }

  /// Schedule one event (cancellable or fire-and-forget) `delay()` ahead.
  void add() {
    if (events.size() >= kMaxEvents) return;
    const std::size_t id = events.size();
    const Duration d = delay();
    if (d > Scheduler::bucket_width() * Scheduler::kBuckets) ++far;
    events.push_back({s.now() + d});
    auto fire = [this, id] { on_fire(id); };
    if (next() % 2 == 0) {
      handles.emplace_back(id, s.schedule_after(d, fire));
    } else {
      s.post_after(d, fire);
    }
  }

  /// Cancel a random cancellable event; only one that has not fired yet
  /// counts as cancelled (cancelling a fired event is a no-op).
  void cancel_one() {
    if (handles.empty()) return;
    auto& [id, handle] = handles[static_cast<std::size_t>(
        below(static_cast<std::int64_t>(handles.size())))];
    if (events[id].fired == 0) events[id].cancelled = true;
    handle.cancel();
  }

  void fail(std::size_t id, const char* what) {
    if (errors++ == 0) {
      first_error = "event " + std::to_string(id) + ": " + what;
    }
  }

  void on_fire(std::size_t id) {
    Event& e = events[id];
    if (e.cancelled) fail(id, "a cancelled event fired");
    if (s.now() != e.at) fail(id, "fired away from its requested instant");
    const std::pair<std::int64_t, std::size_t> key{e.at.ns_since_epoch(), id};
    if (fired_total != 0) {
      if (!(last < key)) fail(id, "fired out of (at, schedule order)");
      if (key.first == last.first) ++ties;
    }
    last = key;
    ++fired_total;
    ++e.fired;  // `e` is not used past this point: add() may grow events
    if (fired_total % 97 == 0) stop = true;
    for (std::int64_t n = below(3); n > 0; --n) add();
    if (next() % 8 == 0) cancel_one();
  }

  /// After run_until(deadline): nothing live at or before it stays queued.
  void expect_nothing_due(TimePoint deadline) {
    for (std::size_t id = 0; id < events.size(); ++id) {
      const Event& e = events[id];
      if (!e.cancelled && e.fired == 0 && e.at <= deadline) {
        fail(id, "still queued after run_until passed its instant");
      }
    }
  }

  Scheduler& s;
  std::uint64_t rng = 0x9e3779b97f4a7c15ull;
  std::vector<Event> events;
  std::vector<std::pair<std::size_t, EventHandle>> handles;
  std::pair<std::int64_t, std::size_t> last{};
  std::size_t fired_total = 0;
  std::size_t ties = 0;  ///< firings at the same instant as the previous one
  std::size_t far = 0;   ///< events scheduled past the ring horizon
  bool stop = false;     ///< run_while's stop flag, raised every 97 firings
  std::size_t errors = 0;
  std::string first_error;
};

TEST(Scheduler, FiresInAtThenScheduleOrderOnEveryDrive) {
  enum class Drive { kRun, kRunUntil, kStep, kRunWhile };
  for (const Drive drive :
       {Drive::kRun, Drive::kRunUntil, Drive::kStep, Drive::kRunWhile}) {
    SCOPED_TRACE("drive " + std::to_string(static_cast<int>(drive)));
    Scheduler s;
    OrderOracle o{s};
    for (int i = 0; i < 400; ++i) o.add();
    for (int i = 0; i < 60; ++i) o.cancel_one();
    switch (drive) {
      case Drive::kRun:
        s.run();
        break;
      case Drive::kStep:
        while (s.step()) {
        }
        break;
      case Drive::kRunUntil:
        // Slices end at random instants or exactly on a whole millisecond
        // (where ties sit); the harness schedules and cancels in between.
        while (s.pending_events() != 0) {
          const TimePoint deadline =
              o.next() % 2 == 0 ? s.now() + Duration::nanos(o.below(3'000'000))
                                : o.ms_boundary_after(o.below(3));
          s.run_until(deadline);
          EXPECT_EQ(s.now(), deadline);
          o.expect_nothing_due(deadline);
          o.add();
          o.cancel_one();
        }
        break;
      case Drive::kRunWhile:
        // Stops come from the flag, the time bound and an event budget.
        while (s.pending_events() != 0) {
          o.stop = false;
          const Scheduler::RunLimits limits{nullptr, 1 + o.next() % 50};
          s.run_while(o.stop, s.now() + Duration::nanos(o.below(2'000'000)),
                      o.next() % 2 == 0 ? &limits : nullptr);
          o.add();
          o.cancel_one();
        }
        break;
    }

    EXPECT_EQ(o.errors, 0u) << o.first_error;
    EXPECT_EQ(s.pending_events(), 0u);
    std::size_t cancelled = 0, wrong_count = 0;
    for (const OrderOracle::Event& e : o.events) {
      cancelled += e.cancelled ? 1 : 0;
      if (e.fired != (e.cancelled ? 0 : 1)) ++wrong_count;
    }
    EXPECT_EQ(wrong_count, 0u) << "events not fired exactly once (or, if "
                                  "cancelled, never)";
    EXPECT_EQ(o.fired_total + cancelled, o.events.size());
    // The workload reached what it is meant to cover.
    EXPECT_EQ(o.events.size(), OrderOracle::kMaxEvents);
    EXPECT_GT(cancelled, 0u);
    EXPECT_GT(o.ties, 0u);
    EXPECT_GT(o.far, 0u);
  }
}

TEST(Scheduler, ClearedSchedulerReanchorsAndKeepsWorking) {
  // clear() between repetitions must leave the calendar consistent even
  // when now() sits mid-ring with overflow entries queued.
  Scheduler s;
  const Duration horizon = Scheduler::bucket_width() * Scheduler::kBuckets;
  s.schedule_after(Duration::micros(50), [] {});
  s.run();
  s.schedule_after(Duration::micros(1), [] {});
  s.schedule_after(horizon * 2, [] {});
  s.clear();
  EXPECT_EQ(s.pending_events(), 0u);
  int ran = 0;
  s.schedule_after(Duration::micros(2), [&] { ++ran; });
  s.run();
  EXPECT_EQ(ran, 1);
}

}  // namespace
}  // namespace bnm::sim

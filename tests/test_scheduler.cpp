#include <gtest/gtest.h>

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

TEST(Scheduler, CalendarAndHeapFireIdenticalSequences) {
  // The same pseudo-random workload (schedules, nested schedules, cancels)
  // under both queue implementations must fire the identical sequence of
  // (time, tag) pairs — the A/B identity the Release gate enforces at
  // matrix scale.
  auto drive = [](Scheduler::QueueImpl impl) {
    Scheduler s{impl};
    std::vector<std::pair<std::int64_t, int>> fired;
    std::vector<EventHandle> handles;
    std::uint64_t rng = 0x9e3779b97f4a7c15ull;
    auto next = [&rng] {
      rng ^= rng << 13;
      rng ^= rng >> 7;
      rng ^= rng << 17;
      return rng;
    };
    for (int i = 0; i < 400; ++i) {
      const auto delay = Duration::nanos(
          static_cast<std::int64_t>(next() % 40'000'000));  // 0..40ms
      handles.push_back(s.schedule_after(delay, [&s, &fired, &next, i] {
        fired.emplace_back(s.now().ns_since_epoch(), i);
        if (next() % 4 == 0) {
          s.post_after(Duration::nanos(static_cast<std::int64_t>(
                           next() % 1'000'000)),
                       [&s, &fired, i] {
                         fired.emplace_back(s.now().ns_since_epoch(),
                                            i + 1000);
                       });
        }
      }));
    }
    for (std::size_t i = 0; i < handles.size(); i += 7) handles[i].cancel();
    s.run();
    return fired;
  };
  EXPECT_EQ(drive(Scheduler::QueueImpl::kCalendar),
            drive(Scheduler::QueueImpl::kHeap));
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

// Kernel allocation contract: in steady state (pool primed, calendar
// vectors at capacity), schedule_after / post_after / dispatch perform zero
// heap allocations; a Scheduler built on a thread that already ran one
// reuses its storage; and whole paper repetitions and campaign clients stay
// inside a pinned global-heap budget (paper repetitions inside a pinned
// arena budget too). Lives in the bnm_kernel_tests binary
// (ctest label `kernel`) because it replaces the global operator new, which
// must not perturb the tier1 executable.
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <vector>

#include <gtest/gtest.h>

#include "browser/profile.h"
#include "core/campaign.h"
#include "core/experiment.h"
#include "core/parallel_runner.h"
#include "sim/arena.h"
#include "sim/scheduler.h"

static std::atomic<std::uint64_t> g_allocs{0};

// GCC pairs our replaced operator new (malloc-backed) with std::free and
// flags a mismatch; the pairing is intentional and correct for a full
// global replacement, so silence the false positive for this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc{};
}
void* operator new[](std::size_t n) { return ::operator new(n); }
void operator delete(void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }

namespace {

using bnm::sim::Duration;
using bnm::sim::Scheduler;

// Pinned budgets: the measured value + 10% (see the budget tests below).
// Measured 98.12 allocations per paper repetition and 248.85 per campaign
// client; before in-place callbacks, per-thread scheduler storage, plain
// registry stores and the slimmer HTTP exchange they were 203.47 and
// 569.55.
constexpr double kPaperRepetitionBudget = 108.0;
constexpr double kCampaignClientBudget = 273.8;
// Arena allocations per paper repetition: measured 18.05 with packets
// riding in their hop events; 118.2 while host, link, switch and netem
// staged them in arena-backed lists. Like the heap budgets, it only moves
// down.
constexpr double kPaperRepetitionArenaBudget = 19.9;

// One round of the workload both phases share: a bucket's worth of
// cancellable events, a couple of cancels, then drain. Walking this for
// more than kBuckets rounds pushes the clock through a full ring rotation,
// so every bucket slot (and the capacity-circulating vectors behind them)
// gets primed.
void round(Scheduler& s) {
  bnm::sim::EventHandle h0, h7;
  for (int i = 0; i < 32; ++i) {
    auto h = s.schedule_after(Duration::micros(2 * i), [] {});
    if (i == 0) h0 = h;
    if (i == 7) h7 = h;
  }
  h0.cancel();
  h7.cancel();
  s.run();
}

TEST(KernelAlloc, ScheduleAfterSteadyStateDoesNotAllocate) {
  Scheduler s;
  // Priming: rotate through the whole ring (kBuckets slots) plus slack so
  // the control-block pool, free list, and every bucket vector reach
  // steady-state capacity — and the metrics TLS shards exist.
  for (std::size_t i = 0; i < Scheduler::kBuckets + 64; ++i) round(s);

  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  for (std::size_t i = 0; i < Scheduler::kBuckets; ++i) round(s);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "steady-state schedule/cancel/dispatch hit the heap "
      << (after - before) << " times";
  EXPECT_EQ(s.pending_events(), 0u);
}

TEST(KernelAlloc, ControlBlocksRecycleThroughThePool) {
  Scheduler s;
  for (int r = 0; r < 3; ++r) {
    for (int i = 0; i < 100; ++i) s.schedule_after(Duration::micros(i), [] {});
    s.run();
  }
  // All blocks returned to the free list, none leaked.
  const std::size_t parked = s.pooled_control_blocks();
  EXPECT_GE(parked, 100u);
  for (int i = 0; i < 100; ++i) s.schedule_after(Duration::micros(i), [] {});
  // Re-acquisition drains the free list instead of growing the pool.
  EXPECT_EQ(s.pooled_control_blocks(), parked - 100);
  s.run();
  EXPECT_EQ(s.pooled_control_blocks(), parked);
}

TEST(KernelAlloc, StaleHandleCannotCancelRecycledSlot) {
  Scheduler s;
  auto h = s.schedule_after(Duration::micros(1), [] {});
  s.run();
  // The slot is recycled into a new event; the stale handle must neither
  // report it pending nor be able to cancel it.
  bool ran = false;
  s.schedule_after(Duration::micros(1), [&] { ran = true; });
  EXPECT_FALSE(h.pending());
  h.cancel();
  s.run();
  EXPECT_TRUE(ran);
}

// A Scheduler on a thread that already destroyed one adopts that one's
// ring buckets, tiers, callback cells and control blocks: driving the same
// workload through the second scheduler must not touch the heap at all.
// The workload sweeps the whole ring with a few events per bucket, inside
// the capacity a parked bucket keeps (Scheduler::kSpareBucketEntries).
void sweep(Scheduler& s) {
  constexpr std::size_t kPerBucket = 4;
  static_assert(kPerBucket <= Scheduler::kSpareBucketEntries);
  bnm::sim::EventHandle cancelled;
  for (std::size_t b = 0; b < Scheduler::kBuckets; ++b) {
    for (std::size_t i = 0; i < kPerBucket; ++i) {
      auto h = s.schedule_after(
          Scheduler::bucket_width() * static_cast<std::int64_t>(b) +
              Duration::micros(10 * static_cast<std::int64_t>(i)),
          [] {});
      if (b == 0 && i == 0) cancelled = h;
    }
  }
  cancelled.cancel();
  s.run();
}

TEST(KernelAlloc, SecondSchedulerOnWarmThreadDoesNotRegrowItsRing) {
  {
    Scheduler warm;
    for (int i = 0; i < 3; ++i) sweep(warm);
  }
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  {
    Scheduler second;
    for (int i = 0; i < 3; ++i) sweep(second);
  }
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(after - before, 0u)
      << "a Scheduler on a warm thread hit the heap " << (after - before)
      << " times";
}

// ---- whole-workload budgets ------------------------------------------------
//
// Each budget is an amortized global-heap (or arena) allocation count,
// measured as the difference between two runs that differ only in the
// amount of repeated work, so one-time setup (testbeds, metric
// registration, thread shards) cancels out. Counts are deterministic for a
// fixed seed. The budget is the measured count plus 10%; a change that puts
// the heap (or per-hop packet staging) back on the repetition path fails
// here.

std::vector<bnm::core::ExperimentConfig> paper_cells(int runs) {
  std::vector<bnm::core::ExperimentConfig> cells;
  for (const auto& who : bnm::browser::paper_cases()) {
    for (const auto kind : bnm::browser::all_probe_kinds()) {
      bnm::core::ExperimentConfig cfg;
      cfg.browser = who.browser;
      cfg.os = who.os;
      cfg.kind = kind;
      cfg.runs = runs;
      cfg.seed = 42;
      cells.push_back(cfg);
    }
  }
  return cells;
}

/// Heap (or, with `arena`, arena) allocations of one serial paper matrix.
std::uint64_t allocs_for_matrix(int runs, bool arena = false) {
  const auto count = [arena] {
    return arena ? bnm::sim::ArenaStats::allocations()
                 : g_allocs.load(std::memory_order_relaxed);
  };
  const auto cells = paper_cells(runs);
  const std::uint64_t before = count();
  const auto series = bnm::core::run_matrix(cells, /*jobs=*/1);
  const std::uint64_t after = count();
  EXPECT_EQ(series.size(), cells.size());
  return after - before;
}

std::uint64_t allocs_for_campaign(std::uint64_t clients) {
  bnm::core::CampaignSpec spec;
  spec.clients = clients;
  spec.shards = 1;
  bnm::core::CampaignOptions options;
  options.jobs = 1;
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const auto result = bnm::core::run_campaign(spec, options);
  const std::uint64_t after = g_allocs.load(std::memory_order_relaxed);
  EXPECT_EQ(result.shards_run, 1u);
  return after - before;
}

TEST(KernelAlloc, PaperRepetitionHeapBudget) {
  constexpr int kR1 = 4;
  constexpr int kR2 = 12;
  constexpr double kBudgetPerRepetition = kPaperRepetitionBudget;
  allocs_for_matrix(1);  // warm: registrations, thread shards, spares
  const std::uint64_t a1 = allocs_for_matrix(kR1);
  const std::uint64_t a2 = allocs_for_matrix(kR2);
  ASSERT_GT(a2, a1);
  const double per_rep =
      static_cast<double>(a2 - a1) / (88.0 * (kR2 - kR1));
  RecordProperty("allocs_per_repetition", std::to_string(per_rep));
  std::printf("paper repetition: %.2f heap allocations\n", per_rep);
  EXPECT_LE(per_rep, kBudgetPerRepetition);
}

TEST(KernelAlloc, PaperRepetitionArenaBudget) {
  constexpr int kR1 = 4;
  constexpr int kR2 = 12;
  allocs_for_matrix(1, /*arena=*/true);  // warm, as above
  const std::uint64_t a1 = allocs_for_matrix(kR1, /*arena=*/true);
  const std::uint64_t a2 = allocs_for_matrix(kR2, /*arena=*/true);
  ASSERT_GT(a2, a1);
  const double per_rep =
      static_cast<double>(a2 - a1) / (88.0 * (kR2 - kR1));
  RecordProperty("arena_allocs_per_repetition", std::to_string(per_rep));
  std::printf("paper repetition: %.2f arena allocations\n", per_rep);
  EXPECT_LE(per_rep, kPaperRepetitionArenaBudget);
}

TEST(KernelAlloc, CampaignClientHeapBudget) {
  constexpr std::uint64_t kN1 = 100;
  constexpr std::uint64_t kN2 = 300;
  constexpr double kBudgetPerClient = kCampaignClientBudget;
  allocs_for_campaign(10);  // warm
  const std::uint64_t a1 = allocs_for_campaign(kN1);
  const std::uint64_t a2 = allocs_for_campaign(kN2);
  ASSERT_GT(a2, a1);
  const double per_client =
      static_cast<double>(a2 - a1) / static_cast<double>(kN2 - kN1);
  RecordProperty("allocs_per_client", std::to_string(per_client));
  std::printf("campaign client: %.2f heap allocations\n", per_client);
  EXPECT_LE(per_client, kBudgetPerClient);
}

}  // namespace

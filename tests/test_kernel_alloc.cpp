// Kernel allocation contract: in steady state (pool primed, calendar
// vectors at capacity), schedule_after / post_after / dispatch perform zero
// heap allocations; a Scheduler built on a thread that already ran one
// reuses its storage; whole paper repetitions and campaign clients stay
// inside a pinned global-heap budget (paper repetitions inside a pinned
// arena budget too); the passive matcher's consume() sizes its tables
// once, so its allocation count does not grow with the capture; and the
// pcap reader allocates no stream-sized buffer, nor anything a record
// header's length field asks for without the bytes behind it. Lives in
// the bnm_kernel_tests binary (ctest label `kernel`) because it replaces
// the global operator new, which must not perturb the tier1 executable.
#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <new>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "browser/profile.h"
#include "core/campaign.h"
#include "core/experiment.h"
#include "core/parallel_runner.h"
#include "net/capture.h"
#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
#include "passive/rtt_estimator.h"
#include "pcap_streams.h"
#include "sim/arena.h"
#include "sim/scheduler.h"
#include "sim/simulation.h"

static std::atomic<std::uint64_t> g_allocs{0};
static std::atomic<std::uint64_t> g_alloc_bytes{0};

// GCC pairs our replaced operator new (malloc-backed) with std::free and
// flags a mismatch; the pairing is intentional and correct for a full
// global replacement, so silence the false positive for this TU.
#pragma GCC diagnostic ignored "-Wmismatched-new-delete"

// The sizes of the first kSizeLogLength allocations made while
// g_size_log_on is set, for tests that compare what was asked for.
constexpr std::size_t kSizeLogLength = 64;
static std::size_t g_size_log[kSizeLogLength];
static std::atomic<std::size_t> g_size_log_used{0};
static std::atomic<bool> g_size_log_on{false};

void* operator new(std::size_t n) {
  g_allocs.fetch_add(1, std::memory_order_relaxed);
  g_alloc_bytes.fetch_add(n, std::memory_order_relaxed);
  if (g_size_log_on.load(std::memory_order_relaxed)) {
    const std::size_t i =
        g_size_log_used.fetch_add(1, std::memory_order_relaxed);
    if (i < kSizeLogLength) g_size_log[i] = n;
  }
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
// Measured 96.08 allocations per paper repetition and 241.22 per campaign
// client, after BrowserProfile dropped its two unused Date-clock configs
// (98.08 and 248.85 with them); before in-place callbacks, per-thread
// scheduler storage, plain registry stores and the slimmer HTTP exchange
// they were 203.47 and 569.55.
constexpr double kPaperRepetitionBudget = 105.7;
constexpr double kCampaignClientBudget = 265.3;
// Arena allocations per paper repetition: measured 18.05 with packets
// riding in their hop events; 118.2 while host, link, switch and netem
// staged them in arena-backed lists. Like the heap budgets, it only moves
// down.
constexpr double kPaperRepetitionArenaBudget = 19.9;
// Heap allocations of one PassiveRttEstimator::consume(records) on a fresh
// estimator: the anchor, slot and two sample tables once each, plus the
// half-flow table and its index growing to the capture's 16 half-flows.
// Measured 12 at 1k and at 12.8k records; when the anchor and sample tables
// grew inside the loop it was 45 and 61.
constexpr std::uint64_t kPassiveConsumeBudget = 12;

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

/// `n` records of a tap between 8 clients and one server, 1 ms apart and
/// round-robin over the clients: a data segment with a fresh TSval, then
/// the server's ACK echoing it. 12.8k records span 12.8 s, past the 10 s
/// anchor window, so the eviction sweep drops anchors on the way.
std::vector<bnm::net::PcapRecord> ping_pong_records(int n) {
  using bnm::net::Endpoint;
  using bnm::net::IpAddress;
  const Endpoint server{IpAddress{10, 0, 0, 2}, 80};
  std::vector<std::uint32_t> seq(8, 1);
  std::vector<bnm::net::PcapRecord> records;
  for (int k = 0; k < n; ++k) {
    const auto f = static_cast<std::size_t>(k / 2 % 8);
    const Endpoint client{IpAddress{10, 0, 1, static_cast<std::uint8_t>(f)},
                          static_cast<bnm::net::Port>(40000 + f)};
    bnm::net::PcapRecord r;
    r.timestamp = bnm::sim::TimePoint::from_ns(std::int64_t{k} * 1'000'000);
    r.flags.ack = true;
    r.ts = {true, static_cast<std::uint32_t>(k + 1),
            static_cast<std::uint32_t>(k)};
    if (k % 2 == 0) {
      r.src = client;
      r.dst = server;
      r.seq = seq[f];
      r.payload_len = 100;
      seq[f] += 100;
    } else {
      r.src = server;
      r.dst = client;
      r.ack = seq[f];
    }
    records.push_back(r);
  }
  return records;
}

struct ConsumeAllocs {
  std::uint64_t count = 0;
  std::uint64_t bytes = 0;
};

ConsumeAllocs allocs_for_consume(
    const std::vector<bnm::net::PcapRecord>& records,
    bnm::passive::PassiveRttEstimator::Config config = {}) {
  bnm::passive::PassiveRttEstimator est{config};
  const std::uint64_t before = g_allocs.load(std::memory_order_relaxed);
  const std::uint64_t bytes_before =
      g_alloc_bytes.load(std::memory_order_relaxed);
  est.consume(records);
  const ConsumeAllocs used{
      g_allocs.load(std::memory_order_relaxed) - before,
      g_alloc_bytes.load(std::memory_order_relaxed) - bytes_before};
  EXPECT_EQ(est.counters().samples, records.size() / 2);
  EXPECT_EQ(est.counters().evicted > 0,
            records.back().timestamp - records.front().timestamp >
                config.anchor_window);
  return used;
}

TEST(KernelAlloc, PassiveConsumeSizesItsTablesOnce) {
  const std::vector<bnm::net::PcapRecord> small = ping_pong_records(1'000);
  const std::vector<bnm::net::PcapRecord> large = ping_pong_records(12'800);
  allocs_for_consume(small);  // warm: the registry's passive.* counters
  const std::uint64_t a_small = allocs_for_consume(small).count;
  const std::uint64_t a_large = allocs_for_consume(large).count;
  std::printf("passive consume: %llu heap allocations at 1k records, "
              "%llu at 12.8k\n",
              static_cast<unsigned long long>(a_small),
              static_cast<unsigned long long>(a_large));
  EXPECT_EQ(a_small, a_large);
  EXPECT_LE(a_large, kPassiveConsumeBudget);
}

// On a capture many windows long, the anchor vector and its slot table are
// sized for what one window holds, not for the capture: a 64k-record scan
// asks for more bytes than a 12.8k-record one only through its two sample
// vectors. So every sweep re-indexes a window-sized table, however long the
// capture, and still nothing regrows inside the loop.
TEST(KernelAlloc, PassiveConsumeSizesAnchorTablesByTheWindow) {
  bnm::passive::PassiveRttEstimator::Config config;
  config.anchor_window = bnm::sim::Duration::millis(100);
  const std::vector<bnm::net::PcapRecord> shorter = ping_pong_records(12'800);
  const std::vector<bnm::net::PcapRecord> longer = ping_pong_records(64'000);
  allocs_for_consume(shorter, config);  // warm the registry
  const ConsumeAllocs a_shorter = allocs_for_consume(shorter, config);
  const ConsumeAllocs a_longer = allocs_for_consume(longer, config);
  std::printf("passive consume, 100 ms window: %llu allocations / %llu bytes "
              "at 12.8k records, %llu / %llu at 64k\n",
              static_cast<unsigned long long>(a_shorter.count),
              static_cast<unsigned long long>(a_shorter.bytes),
              static_cast<unsigned long long>(a_longer.count),
              static_cast<unsigned long long>(a_longer.bytes));
  EXPECT_EQ(a_shorter.count, a_longer.count);
  EXPECT_EQ(a_longer.bytes - a_shorter.bytes,
            (longer.size() - shorter.size()) *
                (sizeof(bnm::passive::PassiveSample) + sizeof(std::uint32_t)));
}

/// `n` packets of a tap between 8 clients and one server, 1 ms apart, in
/// classic pcap bytes: data segments with 100 payload bytes and the
/// server's ACKs, all with RFC 7323 timestamps (the e2e replay's shape).
std::string ping_pong_pcap(int n) {
  using bnm::net::IpAddress;
  bnm::sim::Simulation sim{1};
  bnm::net::PacketCapture tap{sim};
  tap.reserve(static_cast<std::size_t>(n));
  const bnm::net::Payload data{std::string(100, 'd')};
  for (int k = 0; k < n; ++k) {
    sim.scheduler().run_until(
        bnm::sim::TimePoint::from_ns(std::int64_t{k} * 1'000'000));
    const auto f = static_cast<std::uint8_t>(k / 2 % 8);
    const bnm::net::Endpoint client{IpAddress{10, 0, 1, f},
                                    static_cast<bnm::net::Port>(40000 + f)};
    const bnm::net::Endpoint server{IpAddress{10, 0, 0, 2}, 80};
    bnm::net::Packet p;
    p.protocol = bnm::net::Protocol::kTcp;
    p.flags.ack = true;
    p.ts = {true, static_cast<std::uint32_t>(k + 1),
            static_cast<std::uint32_t>(k)};
    p.src = k % 2 == 0 ? client : server;
    p.dst = k % 2 == 0 ? server : client;
    if (k % 2 == 0) p.payload = data;
    tap.record(bnm::net::CaptureDirection::kOutbound, p);
  }
  std::ostringstream out;
  bnm::net::PcapWriter::write(tap, out);
  return std::move(out).str();
}

struct ReadAllocs {
  std::vector<std::size_t> sizes;  ///< every allocation but the records'
  std::size_t record_allocs = 0;   ///< allocations of capacity() records
};

/// The heap allocations of one PcapReader::read of `pcap` from a string
/// stream (built before counting), with the records' final storage (one
/// allocation of capacity() records, reserved once the stream's density
/// is known) told apart from the rest.
ReadAllocs allocs_for_read(const std::string& pcap, std::size_t want_records) {
  std::istringstream in{pcap};
  g_size_log_used.store(0, std::memory_order_relaxed);
  g_size_log_on.store(true, std::memory_order_relaxed);
  const bnm::net::PcapReader::Result result = bnm::net::PcapReader::read(in);
  g_size_log_on.store(false, std::memory_order_relaxed);
  ReadAllocs a;
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.records.size(), want_records);
  const std::size_t used = g_size_log_used.load(std::memory_order_relaxed);
  EXPECT_LE(used, kSizeLogLength);
  // Reserved near what the records need (at their density, plus an eighth
  // on this uniform capture), not for the most the bytes could hold.
  EXPECT_LE(result.records.capacity(), want_records * 5 / 4);
  const std::size_t records_bytes =
      result.records.capacity() * sizeof(bnm::net::PcapRecord);
  for (std::size_t i = 0; i < std::min(used, kSizeLogLength); ++i) {
    if (g_size_log[i] == records_bytes) {
      ++a.record_allocs;
    } else {
      a.sizes.push_back(g_size_log[i]);
    }
  }
  std::sort(a.sizes.begin(), a.sizes.end());
  return a;
}

std::string sizes_text(const std::vector<std::size_t>& sizes) {
  std::string text;
  for (const std::size_t n : sizes) {
    text += ' ';
    text += std::to_string(n);
  }
  return text.empty() ? " none" : text;
}

// Reading a capture 12.8x longer asks for the same allocations, of the same
// sizes, apart from the records' final storage: the reader's window is one
// fixed-size buffer, the records vector grows the same way in both until
// its one reservation, and no buffer grows with the stream. The
// stream-sized copy the reader used to make would show here as one
// allocation 12.8x larger.
TEST(KernelAlloc, PcapReadAllocatesNoStreamBuffer) {
  const std::string small = ping_pong_pcap(1'000);
  const std::string large = ping_pong_pcap(12'800);
  allocs_for_read(small, 1'000);  // warm
  const ReadAllocs a_small = allocs_for_read(small, 1'000);
  const ReadAllocs a_large = allocs_for_read(large, 12'800);
  std::printf("pcap read: 1k records (%zu bytes): records x%zu, others:%s; "
              "12.8k records (%zu bytes): records x%zu, others:%s\n",
              small.size(), a_small.record_allocs,
              sizes_text(a_small.sizes).c_str(), large.size(),
              a_large.record_allocs, sizes_text(a_large.sizes).c_str());
  EXPECT_EQ(a_small.record_allocs, 1u);
  EXPECT_EQ(a_large.record_allocs, 1u);
  EXPECT_EQ(a_small.sizes, a_large.sizes);
}

// A record header claiming a 4 GiB frame (incl_len 0xFFFFFFF0) in a 200-byte
// stream is truncation, and the reader's allocations stay bounded by what
// the stream delivered, whether the stream tells its size or not.
TEST(KernelAlloc, PcapHostileInclLenAllocatesUnderAMebibyte) {
  std::string bytes;
  const auto le32 = [&bytes](std::uint32_t v) {
    for (int i = 0; i < 4; ++i) bytes += static_cast<char>(v >> (8 * i));
  };
  for (const std::uint32_t v :
       {0xa1b2c3d4u, 0x00040002u, 0u, 0u, 65535u,
        bnm::net::PcapWriter::kLinkTypeRaw, 0u, 0u, 0xFFFFFFF0u, 0xFFFFFFF0u}) {
    le32(v);
  }
  bytes.resize(200, '\x45');
  for (const bool trickled : {false, true}) {
    const std::uint64_t before = g_alloc_bytes.load(std::memory_order_relaxed);
    const bnm::net::PcapReader::Result result =
        trickled ? bnm::test::read_trickled(bytes)
                 : bnm::test::read_whole(bytes);
    const std::uint64_t used =
        g_alloc_bytes.load(std::memory_order_relaxed) - before;
    std::printf("hostile incl_len, %s stream: %llu heap bytes\n",
                trickled ? "pipe-like" : "whole",
                static_cast<unsigned long long>(used));
    EXPECT_EQ(result.error, bnm::net::PcapReader::Error::kTruncated);
    EXPECT_TRUE(result.records.empty());
    EXPECT_LT(used, 1u << 20);
  }
}

}  // namespace

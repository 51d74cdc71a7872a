#include "sim/scheduler.h"

#include <algorithm>
#include <cassert>
#include <utility>

#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/trace.h"

namespace bnm::sim {

namespace {

/// Kernel throughput counters (always on, bumped once per batch — never per
/// event). Catalogued in docs/OBSERVABILITY.md.
struct SchedulerMetrics {
  obs::Counter batches;
  obs::Counter events;
  obs::Counter promotions;
  obs::Counter overflow_pulls;

  static const SchedulerMetrics& get() {
    static const SchedulerMetrics m{
        obs::MetricsRegistry::instance().counter(
            "scheduler.batches", "batches",
            "buckets fired by batched dispatch"),
        obs::MetricsRegistry::instance().counter(
            "scheduler.events", "events", "events executed by any scheduler"),
        obs::MetricsRegistry::instance().counter(
            "scheduler.bucket_promotions", "buckets",
            "calendar buckets promoted (sorted) into the bottom tier"),
        obs::MetricsRegistry::instance().counter(
            "scheduler.overflow_pulls", "events",
            "far-future events migrated from the overflow heap into a "
            "promoted bucket"),
    };
    return m;
  }
};

Scheduler::QueueImpl g_default_impl = Scheduler::QueueImpl::kCalendar;

}  // namespace

namespace detail {

std::uint32_t ControlBlockPool::acquire(std::uint32_t& gen) {
  if (!free_.empty()) {
    const std::uint32_t idx = free_.back();
    free_.pop_back();
    Slot& s = slot(idx);
    s.alive = true;
    gen = s.gen;
    return idx;
  }
  if (size_ % kChunkSlots == 0) {
    chunks_.push_back(std::make_unique<Slot[]>(kChunkSlots));
    // Grow the free list up front so retire() never reallocates on the
    // dispatch hot path.
    free_.reserve(size_ + kChunkSlots);
  }
  const std::uint32_t idx = size_++;
  Slot& s = slot(idx);
  s.alive = true;
  gen = s.gen;
  return idx;
}

void ControlBlockPool::retire(std::uint32_t idx) {
  Slot& s = slot(idx);
  ++s.gen;  // stale handles become inert instantly
  s.alive = false;
  free_.push_back(idx);
}

void CallbackPool::grow() {
  chunks_.push_back(std::make_unique<SmallCallback[]>(kChunkCells));
  // Reserve for the worst case (every cell free at once) so release() never
  // reallocates on the dispatch hot path.
  free_.reserve(chunks_.size() * kChunkCells);
  SmallCallback* base = chunks_.back().get();
  for (std::size_t i = kChunkCells; i > 0; --i) {
    free_.push_back(base + (i - 1));
  }
}

}  // namespace detail

void Scheduler::set_default_impl(QueueImpl impl) { g_default_impl = impl; }

Scheduler::QueueImpl Scheduler::default_impl() { return g_default_impl; }

Scheduler::Scheduler(QueueImpl impl)
    : impl_{impl}, pool_{new detail::ControlBlockPool} {}

Scheduler::~Scheduler() { pool_->release(); }

void Scheduler::push_entry(TimePoint at, SmallCallback fn,
                           std::uint32_t block) {
  if (at < now_) at = now_;  // never schedule into the past
  const std::uint64_t seq = next_seq_++;
  // The callable moves into a stable pool cell exactly once; the queue
  // tiers shuffle 40-byte POD entries from here on.
  SmallCallback* cb = cbpool_.acquire(std::move(fn));
  if (impl_ == QueueImpl::kHeap) {
    heap_push(Entry{at, seq, cb, block, now_});
    return;
  }
  const std::uint64_t abs = bucket_of(at);
  if (abs < next_abs_bucket_) {
    // Lands inside the active bottom's time range: merge-insert into the
    // un-fired tail so the (at, seq) total order is preserved. The new
    // entry's seq is the largest so far, so it can never sort before an
    // already-fired position.
    const auto pos = std::upper_bound(
        bottom_.begin() + static_cast<std::ptrdiff_t>(bottom_pos_),
        bottom_.end(), at, [seq](TimePoint key, const Entry& e) {
          if (key != e.at) return key < e.at;
          return seq < e.seq;
        });
    bottom_.insert(pos, Entry{at, seq, cb, block, now_});
  } else if (abs < next_abs_bucket_ + kBuckets) {
    std::vector<Entry>& bucket = ring_[abs & kBucketMask];
    if (bucket.empty()) {
      mark_bucket(abs, true);
    } else if (at < bucket.back().at) {
      // Out-of-order append (the new seq is always maximal, so only an
      // earlier `at` breaks the order): remember that promotion must sort.
      const std::size_t slot = abs & kBucketMask;
      unsorted_[slot / 64] |= std::uint64_t{1} << (slot % 64);
    }
    bucket.push_back(Entry{at, seq, cb, block, now_});
    ++ring_count_;
  } else {
    overflow_.push_back(Entry{at, seq, cb, block, now_});
    std::push_heap(overflow_.begin(), overflow_.end(), Later{});
  }
}

EventHandle Scheduler::schedule_at(TimePoint at, SmallCallback fn) {
  assert(fn && "scheduling an empty callback");
  std::uint32_t gen = 0;
  const std::uint32_t idx = pool_->acquire(gen);
  EventHandle handle{pool_, idx, gen};
  push_entry(at, std::move(fn), idx + 1);
  return handle;
}

EventHandle Scheduler::schedule_after(Duration delay, SmallCallback fn) {
  if (delay.is_negative()) delay = Duration::zero();
  return schedule_at(now_ + delay, std::move(fn));
}

void Scheduler::post_at(TimePoint at, SmallCallback fn) {
  assert(fn && "scheduling an empty callback");
  push_entry(at, std::move(fn), 0);
}

void Scheduler::post_after(Duration delay, SmallCallback fn) {
  if (delay.is_negative()) delay = Duration::zero();
  post_at(now_ + delay, std::move(fn));
}

void Scheduler::mark_bucket(std::uint64_t abs, bool occupied) {
  const std::size_t slot = abs & kBucketMask;
  const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
  if (occupied) {
    occupied_[slot / 64] |= bit;
  } else {
    occupied_[slot / 64] &= ~bit;
  }
}

std::uint64_t Scheduler::next_ring_bucket() const {
  if (ring_count_ == 0) return kNoBucket;
  // Scan the occupancy bitmap cyclically starting at next_abs_bucket_'s
  // slot. Each occupied slot maps to exactly one absolute bucket inside the
  // window [next_abs_bucket_, next_abs_bucket_ + kBuckets).
  const std::size_t start = next_abs_bucket_ & kBucketMask;
  for (std::size_t scanned = 0; scanned < kBuckets;) {
    const std::size_t slot = (start + scanned) & kBucketMask;
    const std::size_t word = slot / 64;
    std::uint64_t bits = occupied_[word] >> (slot % 64);
    if (bits != 0) {
      const std::size_t offset =
          static_cast<std::size_t>(__builtin_ctzll(bits));
      const std::size_t hit = scanned + offset;
      if (hit >= kBuckets) break;  // wrapped past the window
      return next_abs_bucket_ + hit;
    }
    scanned += 64 - (slot % 64);  // jump to the next word boundary
  }
  return kNoBucket;  // unreachable while ring_count_ > 0, but be safe
}

bool Scheduler::refill_bottom() {
  if (bottom_pos_ < bottom_.size()) return true;
  bottom_.clear();
  bottom_pos_ = 0;

  const std::uint64_t rb = next_ring_bucket();
  const std::uint64_t ob =
      overflow_.empty() ? kNoBucket : bucket_of(overflow_.front().at);
  const std::uint64_t b = std::min(rb, ob);
  if (b == kNoBucket) return false;

  bool sorted = true;
  if (rb == b) {
    std::vector<Entry>& bucket = ring_[b & kBucketMask];
    ring_count_ -= bucket.size();
    mark_bucket(b, false);
    const std::size_t slot = b & kBucketMask;
    const std::uint64_t bit = std::uint64_t{1} << (slot % 64);
    sorted = (unsorted_[slot / 64] & bit) == 0;
    unsorted_[slot / 64] &= ~bit;
    // Swap so the drained bucket inherits the bottom's capacity —
    // vectors circulate between the tiers instead of reallocating.
    bottom_.swap(bucket);
  }
  const bool had_ring_entries = !bottom_.empty();
  std::size_t pulled = 0;
  while (!overflow_.empty() && bucket_of(overflow_.front().at) == b) {
    std::pop_heap(overflow_.begin(), overflow_.end(), Later{});
    bottom_.push_back(std::move(overflow_.back()));
    overflow_.pop_back();
    ++pulled;
  }
  // Ring buckets track sortedness at insert time (most workloads append in
  // non-decreasing (at, seq) order, so promotion is sort-free); successive
  // pop_heap pulls arrive already ascending, but appending them after ring
  // entries interleaves two runs and forces the sort.
  if (pulled != 0 && had_ring_entries) sorted = false;
  if (!sorted) std::sort(bottom_.begin(), bottom_.end(), Earlier{});
  next_abs_bucket_ = b + 1;

  const auto& metrics = SchedulerMetrics::get();
  metrics.promotions.add(1);
  if (pulled != 0) metrics.overflow_pulls.add(pulled);
  return true;
}

std::optional<TimePoint> Scheduler::tier_lower_bound() const {
  std::optional<TimePoint> lb;
  const std::uint64_t rb = next_ring_bucket();
  if (rb != kNoBucket) {
    lb = TimePoint::from_ns(static_cast<std::int64_t>(rb << kBucketShiftNs));
  }
  if (!overflow_.empty() &&
      (!lb || overflow_.front().at < *lb)) {
    lb = overflow_.front().at;
  }
  return lb;
}

bool Scheduler::fire_one(bool tracing) {
  // Copy the entry out (40 trivially-copyable bytes): the callback may
  // schedule into the bottom tail and reallocate the vector under us. The
  // callable itself stays put — its pool cell is stable across any growth
  // the callback triggers — so it is invoked in place, never moved.
  const Entry e = bottom_[bottom_pos_++];
  if (e.block != 0 && !pool_->retire_was_alive(e.block - 1)) {
    cbpool_.release(e.cb);
    return false;  // cancelled while queued or staged in a batch
  }
  assert(e.at >= now_);
  now_ = e.at;
  ++executed_;
  if (tracing) {
    // The span covers the event's queue wait in simulated time: posted at
    // e.posted, fired at e.at.
    trace_->emit_span(e.posted, e.at - e.posted, "scheduler", "dispatch",
                      {{"seq", static_cast<std::int64_t>(e.seq)}});
  }
  (*e.cb)();
  cbpool_.release(e.cb);
  return true;
}

void Scheduler::note_batch(std::size_t fired) {
  ++batches_;
  const auto& metrics = SchedulerMetrics::get();
  metrics.batches.add(1);
  if (fired != 0) metrics.events.add(fired);
}

bool Scheduler::step() {
  if (impl_ == QueueImpl::kHeap) return heap_step();
  while (refill_bottom()) {
    const bool tracing = trace_ && trace_->enabled();
    if (fire_one(tracing)) return true;
  }
  return false;
}

std::size_t Scheduler::step_batch() {
  if (impl_ == QueueImpl::kHeap) {
    // The heap has no buckets; a "batch" degrades to one event.
    return heap_step() ? 1 : 0;
  }
  if (!refill_bottom()) return 0;
  BNM_PROF_SCOPE("scheduler.dispatch");
  const bool tracing = trace_ && trace_->enabled();
  const TimePoint batch_start = bottom_[bottom_pos_].at;
  std::size_t fired = 0;
  while (bottom_pos_ < bottom_.size()) {
    if (fire_one(tracing)) ++fired;
  }
  if (tracing) {
    trace_->emit_span(batch_start, now_ - batch_start, "scheduler", "batch",
                      {{"events", static_cast<std::int64_t>(fired)}});
  }
  note_batch(fired);
  return fired;
}

void Scheduler::run() {
  if (impl_ == QueueImpl::kHeap) {
    while (heap_step()) {
    }
    return;
  }
  // step_batch can legitimately fire 0 events (a fully-cancelled bucket);
  // refill_bottom is the emptiness test, not the fired count.
  while (refill_bottom()) step_batch();
}

void Scheduler::run_until(TimePoint deadline) {
  if (impl_ == QueueImpl::kHeap) {
    heap_run_until(deadline);
    return;
  }
  while (true) {
    if (bottom_pos_ < bottom_.size()) {
      BNM_PROF_SCOPE("scheduler.dispatch");
      const bool tracing = trace_ && trace_->enabled();
      std::size_t fired = 0;
      while (bottom_pos_ < bottom_.size() &&
             bottom_[bottom_pos_].at <= deadline) {
        if (fire_one(tracing)) ++fired;
      }
      note_batch(fired);
      if (bottom_pos_ < bottom_.size()) break;  // next event past deadline
      continue;
    }
    // Bottom exhausted: peek at the outer tiers before promoting, so a
    // deadline short of the next bucket costs nothing.
    const auto lb = tier_lower_bound();
    if (!lb || *lb > deadline) break;
    refill_bottom();
  }
  if (now_ < deadline) now_ = deadline;
}

std::size_t Scheduler::run_while(const bool& stop, TimePoint not_after,
                                 const RunLimits* limits) {
  std::size_t fired = 0;
  if (limits == nullptr) {
    // Default path: byte-for-byte the historical loop, no atomic loads.
    while (!stop) {
      if (now_ > not_after) break;
      if (!step()) break;
      ++fired;
    }
  } else {
    while (!stop) {
      if (now_ > not_after) break;
      if (limits->max_events != 0 && fired >= limits->max_events) break;
      if (limits->abort != nullptr &&
          limits->abort->load(std::memory_order_acquire)) {
        break;
      }
      if (!step()) break;
      ++fired;
    }
  }
  if (fired != 0) SchedulerMetrics::get().events.add(fired);
  return fired;
}

std::size_t Scheduler::pending_events() const {
  std::size_t live = 0;
  const auto count = [&](const Entry& e) {
    if (e.block == 0 || pool_->alive(e.block - 1)) ++live;
  };
  for (std::size_t i = bottom_pos_; i < bottom_.size(); ++i) count(bottom_[i]);
  for (const auto& bucket : ring_) {
    for (const Entry& e : bucket) count(e);
  }
  for (const Entry& e : overflow_) count(e);
  for (const Entry& e : heap_) count(e);
  return live;
}

void Scheduler::clear() {
  const auto drop = [&](Entry& e) {
    if (e.block != 0) pool_->retire(e.block - 1);
    cbpool_.release(e.cb);
  };
  for (std::size_t i = bottom_pos_; i < bottom_.size(); ++i) drop(bottom_[i]);
  bottom_.clear();
  bottom_pos_ = 0;
  for (auto& bucket : ring_) {
    for (Entry& e : bucket) drop(e);
    bucket.clear();
  }
  occupied_.fill(0);
  unsorted_.fill(0);
  ring_count_ = 0;
  for (Entry& e : overflow_) drop(e);
  overflow_.clear();
  for (Entry& e : heap_) drop(e);
  heap_.clear();
  // Re-anchor the ring at the current time so new near-future events use
  // the buckets instead of degenerating to sorted bottom inserts.
  next_abs_bucket_ = bucket_of(now_);
}

// ---- kHeap reference implementation ---------------------------------------

void Scheduler::heap_push(Entry entry) {
  heap_.push_back(entry);
  std::push_heap(heap_.begin(), heap_.end(), Later{});
}

Scheduler::Entry Scheduler::heap_pop() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Entry e = heap_.back();
  heap_.pop_back();
  return e;
}

bool Scheduler::heap_step() {
  BNM_PROF_SCOPE("scheduler.dispatch");
  while (!heap_.empty()) {
    const Entry e = heap_pop();
    if (e.block != 0 && !pool_->retire_was_alive(e.block - 1)) {
      cbpool_.release(e.cb);
      continue;  // skip dead entries
    }
    assert(e.at >= now_);
    now_ = e.at;
    ++executed_;
    if (trace_ && trace_->enabled()) {
      trace_->emit_span(e.posted, e.at - e.posted, "scheduler", "dispatch",
                        {{"seq", static_cast<std::int64_t>(e.seq)}});
    }
    (*e.cb)();
    cbpool_.release(e.cb);
    return true;
  }
  return false;
}

void Scheduler::heap_run_until(TimePoint deadline) {
  while (!heap_.empty()) {
    const Entry& top = heap_.front();
    if (top.block != 0 && !pool_->alive(top.block - 1)) {
      const Entry dead = heap_pop();
      pool_->retire(dead.block - 1);
      cbpool_.release(dead.cb);
      continue;
    }
    if (top.at > deadline) break;
    heap_step();
  }
  if (now_ < deadline) now_ = deadline;
}

}  // namespace bnm::sim

// Discrete-event scheduler: the heartbeat of the testbed.
//
// Components schedule closures to run at simulated instants. Events at the
// same instant execute in scheduling order (a monotonically increasing
// sequence number breaks ties), which makes every run fully deterministic.
//
// Cancellation is supported through EventHandle tokens — cancelling marks
// the pooled control block dead; the entry is skipped (and its block
// recycled) when it surfaces.
//
// Queue layout (QueueImpl::kCalendar, the default): a two-tier
// calendar/ladder queue.
//
//   * bottom   — the bucket currently being fired, sorted by (at, seq).
//                Dispatch is an index increment; nested schedules landing
//                inside the bottom's time range are merge-inserted into the
//                un-fired tail, preserving the total order.
//   * ring     — kBuckets near-future buckets of width 2^kBucketShiftNs ns,
//                indexed by the quantized TimePoint. Insertion is an
//                unsorted append; a bucket is sorted once, when it is
//                promoted to become the bottom. A 256-bit occupancy bitmap
//                makes find-next-bucket a handful of word scans.
//   * overflow — binary min-heap for events beyond the ring horizon.
//                Entries migrate into the ring lazily: when their bucket is
//                promoted (epoch advance), never before.
//
// The old binary heap survives as QueueImpl::kHeap, a bit-identical
// reference implementation: bench/perf_matrix runs the full experiment
// matrix under both and fails if a single sample differs.
//
// Hot-path costs: schedule_*/post_* are a bucket append plus (for the
// cancellable path) a pooled control-block acquisition — no heap allocation
// in steady state (tests/test_kernel_alloc.cpp asserts this with an
// operator-new hook). run() fires whole buckets per batch with the
// trace/profiling guards hoisted out of the per-event loop.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <optional>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace bnm::sim {

class Trace;

namespace detail {

/// Pool of event liveness/generation slots. Chunked so slot addresses are
/// stable; recycled slots bump their generation, which instantly
/// invalidates any stale EventHandle without freeing memory. Intrusively
/// refcounted (non-atomic — a Scheduler and its handles live on one thread
/// by contract) so handles that outlive their Scheduler stay safe: they
/// keep the pool alive and, like the old shared_ptr<bool> tokens, report
/// pending() for events their dead scheduler never fired.
class ControlBlockPool {
 public:
  void add_ref() { ++refs_; }
  void release() {
    if (--refs_ == 0) delete this;
  }
  /// Take a free slot (alive, current generation — written to `gen`).
  /// Allocates a new chunk only when the pool is exhausted — steady state
  /// is allocation-free.
  std::uint32_t acquire(std::uint32_t& gen);
  /// Entry surfaced (fired, dead or cleared): invalidate outstanding
  /// handles and recycle the slot.
  void retire(std::uint32_t idx);
  /// retire() fused with the liveness read the dispatch loop needs —
  /// one slot lookup instead of two. Returns whether the event was still
  /// alive (i.e. not cancelled) at retirement.
  bool retire_was_alive(std::uint32_t idx) {
    Slot& s = slot(idx);
    const bool was_alive = s.alive;
    ++s.gen;
    s.alive = false;
    free_.push_back(idx);
    return was_alive;
  }

  void cancel(std::uint32_t idx, std::uint32_t gen) {
    Slot& s = slot(idx);
    if (s.gen == gen) s.alive = false;
  }
  bool pending(std::uint32_t idx, std::uint32_t gen) const {
    const Slot& s = slot(idx);
    return s.gen == gen && s.alive;
  }
  bool alive(std::uint32_t idx) const { return slot(idx).alive; }
  std::uint32_t generation(std::uint32_t idx) const { return slot(idx).gen; }
  std::size_t free_count() const { return free_.size(); }

 private:
  struct Slot {
    std::uint32_t gen = 0;
    bool alive = false;
  };
  static constexpr std::size_t kChunkSlots = 256;

  Slot& slot(std::uint32_t i) {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }
  const Slot& slot(std::uint32_t i) const {
    return chunks_[i / kChunkSlots][i % kChunkSlots];
  }

  std::vector<std::unique_ptr<Slot[]>> chunks_;
  std::vector<std::uint32_t> free_;
  std::uint32_t size_ = 0;
  std::uint32_t refs_ = 1;  ///< creator's reference
};

/// Chunk-stable pool of SmallCallback cells. Queue entries reference their
/// callable by pointer, which keeps an Entry at ~40 trivially-copyable
/// bytes: bucket pushes, promotions and sorts move small PODs instead of
/// memcpy'ing 64-byte closure buffers, and dispatch can invoke the callable
/// in place — cells never move, even when the callback's own scheduling
/// grows the pool or reshapes the queue tiers.
class CallbackPool {
 public:
  SmallCallback* acquire(SmallCallback&& fn) {
    if (free_.empty()) grow();
    SmallCallback* cell = free_.back();
    free_.pop_back();
    *cell = std::move(fn);
    return cell;
  }
  /// Destroy the cell's callable (if any) and park the cell for reuse.
  /// Never allocates: grow() pre-reserves the free list.
  void release(SmallCallback* cell) {
    *cell = SmallCallback{};
    free_.push_back(cell);
  }

 private:
  static constexpr std::size_t kChunkCells = 256;
  void grow();
  std::vector<std::unique_ptr<SmallCallback[]>> chunks_;
  std::vector<SmallCallback*> free_;
};

}  // namespace detail

/// A cancellation token for a scheduled event. Default-constructed handles
/// are inert. Handles are cheap to copy (one refcount bump, no allocation);
/// cancelling any copy cancels the event.
class EventHandle {
 public:
  EventHandle() = default;
  EventHandle(const EventHandle& o) : pool_{o.pool_}, idx_{o.idx_}, gen_{o.gen_} {
    if (pool_) pool_->add_ref();
  }
  EventHandle(EventHandle&& o) noexcept
      : pool_{o.pool_}, idx_{o.idx_}, gen_{o.gen_} {
    o.pool_ = nullptr;
  }
  EventHandle& operator=(const EventHandle& o) {
    if (this != &o) {
      if (o.pool_) o.pool_->add_ref();
      if (pool_) pool_->release();
      pool_ = o.pool_;
      idx_ = o.idx_;
      gen_ = o.gen_;
    }
    return *this;
  }
  EventHandle& operator=(EventHandle&& o) noexcept {
    if (this != &o) {
      if (pool_) pool_->release();
      pool_ = o.pool_;
      idx_ = o.idx_;
      gen_ = o.gen_;
      o.pool_ = nullptr;
    }
    return *this;
  }
  ~EventHandle() {
    if (pool_) pool_->release();
  }

  /// Cancel the event if it has not fired yet. Idempotent.
  void cancel() {
    if (pool_) pool_->cancel(idx_, gen_);
  }
  /// True if the event is still waiting to fire.
  bool pending() const { return pool_ && pool_->pending(idx_, gen_); }

 private:
  friend class Scheduler;
  EventHandle(detail::ControlBlockPool* pool, std::uint32_t idx,
              std::uint32_t gen)
      : pool_{pool}, idx_{idx}, gen_{gen} {
    pool_->add_ref();
  }
  detail::ControlBlockPool* pool_ = nullptr;
  std::uint32_t idx_ = 0;
  std::uint32_t gen_ = 0;
};

/// Calendar-queue event scheduler with deterministic same-instant ordering.
class Scheduler {
 public:
  /// Queue implementation selector: the calendar queue is the production
  /// kernel; the binary heap is kept as the A/B reference (bit-identity
  /// gated in bench/perf_matrix and scripts/check.sh).
  enum class QueueImpl : std::uint8_t { kCalendar, kHeap };

  /// Process-wide default for new Schedulers (like Arena::set_enabled, a
  /// bench/test A/B knob — flip it only at quiescent points).
  static void set_default_impl(QueueImpl impl);
  static QueueImpl default_impl();

  Scheduler() : Scheduler(default_impl()) {}
  explicit Scheduler(QueueImpl impl);
  ~Scheduler();
  Scheduler(const Scheduler&) = delete;
  Scheduler& operator=(const Scheduler&) = delete;

  QueueImpl impl() const { return impl_; }

  /// Current simulated time. Advances only inside run()/step().
  TimePoint now() const { return now_; }

  /// Schedule `fn` to run at absolute time `at` (must be >= now()).
  EventHandle schedule_at(TimePoint at, SmallCallback fn);
  /// Schedule `fn` to run `delay` after now(). Negative delays clamp to 0.
  EventHandle schedule_after(Duration delay, SmallCallback fn);

  /// Fire-and-forget variants: no cancellation handle, no control block.
  /// Prefer these on hot paths that never cancel.
  void post_at(TimePoint at, SmallCallback fn);
  void post_after(Duration delay, SmallCallback fn);

  /// Execute the next pending event; returns false if the queue is empty.
  bool step();
  /// Batched dispatch: fire every remaining event of the current bucket
  /// (promoting the next one if none is active) without re-touching the
  /// queue tiers per event. Trace/profiling guards are evaluated once per
  /// batch. Returns the number of events fired (0 == queue empty).
  std::size_t step_batch();
  /// Run until the queue drains (batched internally).
  void run();
  /// Run until the queue drains or simulated time would exceed `deadline`.
  /// Events past the deadline stay queued.
  void run_until(TimePoint deadline);
  /// Cooperative limits for a run_while drive. Both knobs are optional and
  /// owned by the caller (the matrix runner's per-cell watchdog): `abort` is
  /// set from another thread when the cell's wall-clock deadline expires,
  /// `max_events` caps how many events this call may fire (a simulated-event
  /// budget against runaway event loops). Passing nullptr to run_while keeps
  /// the historical zero-overhead loop — no atomic loads on the default path.
  struct RunLimits {
    const std::atomic<bool>* abort = nullptr;
    std::uint64_t max_events = 0;  ///< 0 = unlimited
  };

  /// Drive events one at a time while `stop` is false and now() has not
  /// passed `not_after` — the experiment completion loop, with the checks
  /// evaluated before each event exactly like the historical
  /// `while (!done && now() <= deadline && step())`. Returns events fired.
  /// With `limits`, the loop additionally stops when the abort flag is set
  /// or the event budget for this call is exhausted (the caller inspects
  /// its watchdog/budget state to tell those apart from completion).
  std::size_t run_while(const bool& stop, TimePoint not_after,
                        const RunLimits* limits = nullptr);

  /// Number of live (non-cancelled) events still queued.
  std::size_t pending_events() const;
  /// Total events executed so far (for micro-benchmarks and tests).
  std::uint64_t executed_events() const { return executed_; }
  /// Batches fired by run()/step_batch() so far.
  std::uint64_t executed_batches() const { return batches_; }

  /// Control-block slots currently parked for reuse (observability for the
  /// substrate micro-benchmarks).
  std::size_t pooled_control_blocks() const { return pool_->free_count(); }

  /// Drop every queued event (used between experiment repetitions).
  /// Outstanding handles for dropped events report !pending().
  void clear();

  /// Attach a trace (owned elsewhere, e.g. the Simulation): when it is
  /// enabled, dispatch emits a "dispatch" span per event covering its queue
  /// wait [posted, fired) in simulated time, plus one "batch" span per
  /// fired batch.
  void set_trace(Trace* trace) { trace_ = trace; }

  // ---- calendar geometry (exposed for tests) ----
  /// Bucket width is 2^kBucketShiftNs ns (65.536 us); the ring covers
  /// kBuckets * width (~16.8 ms) of near future beyond the active bucket.
  static constexpr unsigned kBucketShiftNs = 16;
  static constexpr std::size_t kBuckets = 256;
  static constexpr Duration bucket_width() {
    return Duration::nanos(std::int64_t{1} << kBucketShiftNs);
  }

 private:
  struct Entry {
    TimePoint at;
    std::uint64_t seq;
    SmallCallback* cb;    ///< cell in cbpool_ (stable address)
    std::uint32_t block;  ///< pool slot + 1; 0 == fire-and-forget
    TimePoint posted;     ///< when the entry was queued
  };
  struct Later {  // max-heap comparator -> min (at, seq) at front
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at > b.at;
      return a.seq > b.seq;
    }
  };
  struct Earlier {
    bool operator()(const Entry& a, const Entry& b) const {
      if (a.at != b.at) return a.at < b.at;
      return a.seq < b.seq;
    }
  };

  static constexpr std::size_t kBucketMask = kBuckets - 1;
  static constexpr std::uint64_t kNoBucket = ~std::uint64_t{0};

  static std::uint64_t bucket_of(TimePoint at) {
    return static_cast<std::uint64_t>(at.ns_since_epoch()) >> kBucketShiftNs;
  }

  void push_entry(TimePoint at, SmallCallback fn, std::uint32_t block);
  /// Fire (or discard, if cancelled) the next bottom entry. Returns true
  /// if a live event ran. Caller guarantees bottom_pos_ < bottom_.size().
  bool fire_one(bool tracing);
  /// Ensure the bottom holds un-fired entries; promotes the next bucket
  /// (ring or overflow) when exhausted. False when the queue is empty.
  bool refill_bottom();
  /// Earliest possible time of any event outside the bottom (bucket lower
  /// bound for ring entries — cheap, conservative), or nullopt.
  std::optional<TimePoint> tier_lower_bound() const;
  std::uint64_t next_ring_bucket() const;  ///< abs index or kNoBucket
  void mark_bucket(std::uint64_t abs, bool occupied);
  void note_batch(std::size_t fired);

  // ---- kHeap reference implementation ----
  void heap_push(Entry entry);
  Entry heap_pop();
  bool heap_step();
  void heap_run_until(TimePoint deadline);

  QueueImpl impl_;
  detail::ControlBlockPool* pool_;
  detail::CallbackPool cbpool_;

  // Calendar tiers.
  std::vector<Entry> bottom_;
  std::size_t bottom_pos_ = 0;
  std::array<std::vector<Entry>, kBuckets> ring_;
  std::array<std::uint64_t, kBuckets / 64> occupied_{};
  /// Bit set when a ring bucket received an out-of-order entry; a clear bit
  /// means the bucket is already (at, seq)-sorted at promotion time and the
  /// sort is skipped entirely.
  std::array<std::uint64_t, kBuckets / 64> unsorted_{};
  std::size_t ring_count_ = 0;
  std::uint64_t next_abs_bucket_ = 0;  ///< first un-promoted bucket index
  std::vector<Entry> overflow_;        ///< heap, Later{}

  // kHeap tier.
  std::vector<Entry> heap_;

  TimePoint now_;
  std::uint64_t next_seq_ = 0;
  std::uint64_t executed_ = 0;
  std::uint64_t batches_ = 0;
  Trace* trace_ = nullptr;
};

}  // namespace bnm::sim

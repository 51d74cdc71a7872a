// Per-simulation monotonic bump arena for the packet hot path.
//
// One simulated packet hop used to cost several trips through the global
// allocator (payload buffers, TCP queue nodes, capture growth).
// An Arena replaces those with pointer bumps into chunked slabs: allocation
// is O(1) and contention-free, deallocation is deferred wholesale to
// reset() (between runs) or destruction. The allocator never reclaims an
// individual object — that is the contract that makes it cheap, and it fits
// the simulator exactly: everything allocated while a simulation runs dies
// with its Testbed, strictly before the arena is reset or destroyed.
//
// Threading model: an Arena is single-thread-confined, like the Simulation
// that owns it. Code opts in through a thread-local "current arena"
// installed with ArenaScope; allocation sites (Payload buffers,
// ArenaAllocator-backed containers) consult Arena::current() and fall back
// to the global allocator when no scope is active, so every component works
// identically — bit for bit — with the arena on or off. The job runner
// (core::run_units) gives each worker thread a private arena, reset after
// every cell or shard, so parallel units never touch the global allocator
// on the packet path and never contend with each other.
//
// Stats: each arena keeps cheap per-instance counters, and the process-wide
// aggregate (ArenaStats, used by bench/perf_matrix) lives in the obs metrics
// registry as arena.*.
#pragma once

#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <vector>

namespace bnm::sim {

class Arena {
 public:
  static constexpr std::size_t kDefaultChunkBytes = 256 * 1024;

  explicit Arena(std::size_t chunk_bytes = kDefaultChunkBytes);
  ~Arena();
  Arena(const Arena&) = delete;
  Arena& operator=(const Arena&) = delete;

  /// Bump-allocate `size` bytes aligned to `align`. Never returns nullptr
  /// (chunks grow on demand; an oversized request gets a dedicated chunk).
  void* allocate(std::size_t size,
                 std::size_t align = alignof(std::max_align_t));

  /// Rewind to empty, retaining every chunk for reuse. All memory handed
  /// out since the last reset must be dead: the caller guarantees no
  /// Payload, container node or queued packet allocated from this arena is
  /// still alive (in the matrix runner that holds because each cell's
  /// Testbed is destroyed before the worker resets).
  void reset();

  // ---- per-arena counters (always on; plain increments on the owning
  // ---- thread, so they cost nothing measurable) ----
  std::uint64_t allocations() const { return allocations_; }  ///< lifetime
  std::uint64_t bytes_served() const { return bytes_served_; }  ///< lifetime
  std::size_t bytes_in_use() const { return in_use_; }  ///< since reset()
  std::size_t peak_bytes() const { return peak_; }      ///< lifetime high-water
  std::size_t chunk_count() const { return chunks_.size(); }
  std::size_t bytes_reserved() const;  ///< sum of chunk capacities

  /// The calling thread's active arena (nullptr when none, or when arenas
  /// are globally disabled).
  static Arena* current();

  /// Process-wide kill switch for A/B comparisons (bit-identity tests,
  /// bench/perf_matrix's arena-off reference pass). Scopes installed while
  /// disabled are ignored; existing arena-backed objects stay valid.
  static void set_enabled(bool on);
  static bool enabled();

 private:
  struct Chunk {
    std::unique_ptr<std::byte[]> base;
    std::size_t capacity = 0;
    std::size_t used = 0;
  };

  /// Make room for `size` bytes: reuse the next retained chunk or grow.
  void add_chunk(std::size_t min_size);

  std::vector<Chunk> chunks_;
  std::size_t active_ = 0;  ///< index of the chunk currently bumped
  std::size_t chunk_bytes_;
  std::size_t in_use_ = 0;
  std::size_t peak_ = 0;
  std::uint64_t allocations_ = 0;
  std::uint64_t bytes_served_ = 0;
};

/// RAII installer for the thread-local current arena. Passing nullptr keeps
/// whatever is already installed (a no-op scope) — callers that want
/// "install mine unless an outer scope is active" pass
/// `Arena::current() ? nullptr : &mine`.
class ArenaScope {
 public:
  explicit ArenaScope(Arena* arena);
  explicit ArenaScope(Arena& arena) : ArenaScope(&arena) {}
  ~ArenaScope();
  ArenaScope(const ArenaScope&) = delete;
  ArenaScope& operator=(const ArenaScope&) = delete;

 private:
  Arena* prev_;
  bool installed_;
};

/// Process-wide aggregate of arena service, for the bench harness.
struct ArenaStats {
  /// Allocation calls served by any arena (== global-allocator round trips
  /// avoided on the hot path).
  static std::uint64_t allocations();
  /// Bytes served by any arena.
  static std::uint64_t bytes();
  /// Largest bytes_in_use() any single arena reached.
  static std::uint64_t peak_arena_bytes();
  static void reset();
};

/// Minimal std::allocator replacement that serves from the arena captured
/// at construction (Arena::current() by default) and falls back to the
/// global allocator when none was active. deallocate() is a no-op for
/// arena-served memory — containers using this allocator must die before
/// their arena resets. Intended for the simulator's per-connection /
/// per-stage containers (TCP send/reassembly/retransmit queues, capture
/// columns, fault event traces), whose lifetime is bounded by the owning
/// Testbed.
template <typename T>
class ArenaAllocator {
 public:
  using value_type = T;

  ArenaAllocator() noexcept : arena_{Arena::current()} {}
  explicit ArenaAllocator(Arena* arena) noexcept : arena_{arena} {}
  template <typename U>
  ArenaAllocator(const ArenaAllocator<U>& other) noexcept
      : arena_{other.arena()} {}

  T* allocate(std::size_t n) {
    const std::size_t bytes = n * sizeof(T);
    if (arena_ != nullptr) {
      return static_cast<T*>(arena_->allocate(bytes, alignof(T)));
    }
    return static_cast<T*>(::operator new(bytes));
  }
  void deallocate(T* p, std::size_t) noexcept {
    if (arena_ == nullptr) ::operator delete(p);
  }

  Arena* arena() const noexcept { return arena_; }

  template <typename U>
  bool operator==(const ArenaAllocator<U>& other) const noexcept {
    return arena_ == other.arena();
  }

 private:
  Arena* arena_;
};

}  // namespace bnm::sim

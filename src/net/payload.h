// Zero-copy packet payloads: an immutable, refcounted byte buffer
// (PayloadBuffer) and a cheap offset/length view over it (Payload).
//
// Ownership model (see DESIGN.md "Payload buffers"):
//   * The bytes inside a PayloadBuffer are immutable for as long as more
//     than one Payload references them. Copying a Payload bumps a refcount;
//     it never touches the bytes. Sub-views (TCP segmentation) alias the
//     same buffer at an offset.
//   * Mutation goes through the explicit copy-on-write escape hatch
//     `mutable_bytes()`: a uniquely-owned full view is mutated in place,
//     anything shared is first cloned into a fresh buffer. Every other
//     holder keeps seeing the original bytes, so the simulator's
//     "every hop works on its own copy" invariant holds by construction.
//
// Accounting: the class counts payload bytes that are deep-copied versus
// bytes that are merely aliased (each alias is a copy the pre-zero-copy
// design would have performed). bench/payload_copy.cpp reports the ratio.
//
// Allocation: a PayloadBuffer is one intrusively-refcounted block (header
// and bytes contiguous), served from the thread's current sim::Arena when
// one is installed and from the global allocator otherwise. The two paths
// are observationally identical — same bytes, same PayloadStats counts —
// which the bit-identity tests rely on.
#pragma once

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <new>
#include <string>
#include <utility>
#include <vector>

#include "obs/metrics.h"

namespace bnm::net {

/// Global tallies of payload byte traffic. Relaxed atomics: cheap on the
/// hot path, safe under the parallel matrix runner, precise enough for the
/// bench harness (each simulation is single-threaded).
struct PayloadStats {
  /// Bytes memcpy'd into fresh buffers (buffer creation, COW clones,
  /// multi-chunk gathers, as_vector()/as_string() extraction).
  static std::uint64_t deep_copy_bytes();
  /// Bytes aliased by copying/sub-viewing a Payload instead of deep-copying
  /// them — exactly what the old owned-vector design paid per hop.
  static std::uint64_t aliased_bytes();
  /// Number of distinct backing buffers allocated.
  static std::uint64_t buffers_allocated();
  static void reset();
};

/// One refcounted immutable byte buffer. Two storage modes:
///   * inline  — the bytes live directly after the header, in the same
///     block (a single arena bump or a single ::operator new);
///   * adopted — the buffer wraps a std::vector handed in by the caller
///     (zero-copy adoption; the vector keeps its own heap storage).
/// The block itself comes from the thread's current sim::Arena when one is
/// installed; deref() then skips operator delete — the arena reclaims the
/// memory wholesale at reset(). The refcount is atomic so a buffer may be
/// observed from stats/teardown paths, but arena-backed buffers are
/// thread-confined like the simulation that made them. Declared here only
/// so Payload's per-packet accessors inline; only Payload uses it.
class PayloadBuffer {
 public:
  /// New inline buffer with `size` uninitialized bytes (size > 0).
  static PayloadBuffer* create(std::size_t size);
  /// Wrap a vector without copying its bytes (vector must be non-empty).
  static PayloadBuffer* adopt(std::vector<std::uint8_t>&& bytes);

  void ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void deref() noexcept {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) destroy();
  }
  std::uint32_t use_count() const {
    return refs_.load(std::memory_order_relaxed);
  }

  std::uint8_t* data() {
    return adopted_ ? vec_.data() : reinterpret_cast<std::uint8_t*>(this + 1);
  }
  const std::uint8_t* data() const {
    return const_cast<PayloadBuffer*>(this)->data();
  }
  std::size_t size() const { return size_; }

 private:
  PayloadBuffer(std::size_t size, bool arena_backed)
      : size_{size}, adopted_{false}, arena_backed_{arena_backed} {}
  PayloadBuffer(std::vector<std::uint8_t>&& bytes, bool arena_backed)
      : size_{bytes.size()}, adopted_{true}, arena_backed_{arena_backed} {
    new (&vec_) std::vector<std::uint8_t>(std::move(bytes));
  }
  ~PayloadBuffer() {}  // vec_ destroyed manually in destroy()
  void destroy() noexcept;

  std::atomic<std::uint32_t> refs_{1};
  std::size_t size_;
  const bool adopted_;
  const bool arena_backed_;
  union {
    std::vector<std::uint8_t> vec_;  // active only when adopted_
  };
};

namespace detail {
/// The `payload.aliased_bytes` counter (docs/OBSERVABILITY.md). Inline so
/// that subview(), which bumps it, inlines too.
inline const obs::Counter& aliased_bytes_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "payload.aliased_bytes", "bytes",
      "bytes shared by reference instead of copied");
  return c;
}
}  // namespace detail

/// An immutable view (offset + length) into a refcounted byte buffer.
/// Copying is O(1); the bytes are shared, never duplicated. The API is
/// deliberately vector-ish (size/empty/data/begin/end/operator[]) so code
/// that used to hold std::vector<std::uint8_t> ports with minimal churn.
class Payload {
 public:
  using value_type = std::uint8_t;
  using const_iterator = const std::uint8_t*;

  Payload() = default;
  /// Adopt a byte vector as a new immutable buffer (no copy for rvalues).
  Payload(std::vector<std::uint8_t> bytes);  // NOLINT: implicit by design
  /// Deep-copy a string's bytes into a new buffer.
  explicit Payload(const std::string& bytes);
  /// Deep-copy a raw byte range into a new buffer.
  static Payload copy_of(const void* data, std::size_t len);

  Payload(const Payload& other);
  Payload& operator=(const Payload& other);
  // Moves, destruction, data() and subview() run on every packet hop or
  // pcap record, so they stay inline; only freeing a buffer reaches into
  // payload.cc.
  Payload(Payload&& other) noexcept
      : buf_{std::exchange(other.buf_, nullptr)},
        offset_{std::exchange(other.offset_, 0)},
        size_{std::exchange(other.size_, 0)} {}
  Payload& operator=(Payload&& other) noexcept {
    if (this != &other) {
      if (buf_ != nullptr) buf_->deref();
      buf_ = std::exchange(other.buf_, nullptr);
      offset_ = std::exchange(other.offset_, 0);
      size_ = std::exchange(other.size_, 0);
    }
    return *this;
  }
  ~Payload() {
    if (buf_ != nullptr) buf_->deref();
  }

  std::size_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  const std::uint8_t* data() const {
    return buf_ != nullptr ? buf_->data() + offset_ : kEmptyBytes;
  }
  const_iterator begin() const { return data(); }
  const_iterator end() const { return data() + size_; }
  std::uint8_t operator[](std::size_t i) const { return data()[i]; }

  /// Zero-copy sub-view: `len` bytes starting at `offset` (clamped to the
  /// view's bounds). Shares the backing buffer.
  Payload subview(std::size_t offset, std::size_t len) const {
    if (offset >= size_) return Payload{};
    len = std::min(len, size_ - offset);
    if (len == 0) return Payload{};
    detail::aliased_bytes_counter().add(len);
    buf_->ref();
    return Payload{buf_, offset_ + offset, len};
  }
  /// Zero-copy prefix of at most `n` bytes.
  Payload first(std::size_t n) const { return subview(0, n); }
  /// Zero-copy suffix starting at `offset`.
  Payload skip(std::size_t offset) const {
    return subview(offset, size_ - std::min(offset, size_));
  }
  /// Drop `n` bytes from the front of this view in place. Pure view
  /// bookkeeping (the old deque-based send buffer popped its head just as
  /// cheaply), so unlike subview() it is not counted as aliased bytes.
  void remove_prefix(std::size_t n) {
    n = std::min(n, size_);
    offset_ += n;
    size_ -= n;
    if (size_ == 0) clear();
  }

  // ---- vector-compat mutators: rebind this view to a fresh buffer ----
  void clear();
  void assign(std::size_t count, std::uint8_t value);
  template <typename It>
  void assign(It first, It last) {
    *this = Payload{std::vector<std::uint8_t>(first, last)};
  }

  /// Copy-on-write escape hatch: a pointer to size() writable bytes. A
  /// uniquely-owned full view is mutated in place; a shared or partial view
  /// is first cloned, so every other holder keeps the original bytes.
  /// In-place mutation only — a payload never changes length.
  std::uint8_t* mutable_bytes();

  /// Materialize a copy (counted as a deep copy).
  std::vector<std::uint8_t> as_vector() const;
  std::string as_string() const;

  /// Byte-wise comparison (not buffer identity).
  bool operator==(const Payload& other) const;
  bool operator==(const std::vector<std::uint8_t>& other) const;

  // ---- introspection for tests and the bench harness ----
  /// True when both views read from the same backing buffer (and therefore
  /// neither paid a byte copy).
  bool shares_buffer_with(const Payload& other) const {
    return buf_ != nullptr && buf_ == other.buf_;
  }
  long buffer_use_count() const;

 private:
  friend Payload gather(const Payload* parts, std::size_t count,
                        std::size_t skip_front, std::size_t total);

  /// Takes ownership of one reference (the caller must have ref'd `buf`).
  Payload(PayloadBuffer* buf, std::size_t offset, std::size_t size)
      : buf_{buf}, offset_{offset}, size_{size} {}
  /// What data() points at for the empty view, which has no buffer. Its
  /// bound is left out here so that inlined reads behind an empty() check
  /// do not trip -Warray-bounds.
  static const std::uint8_t kEmptyBytes[];

  PayloadBuffer* buf_ = nullptr;
  std::size_t offset_ = 0;
  std::size_t size_ = 0;
};

/// Gather a sequence of views into one contiguous buffer (deep copy; used
/// when a TCP segment must span send-queue chunk boundaries).
Payload gather(const Payload* parts, std::size_t count, std::size_t skip_front,
               std::size_t total);

/// String conversion helpers (HTTP layer convenience).
std::string to_string(const Payload& p);

}  // namespace bnm::net

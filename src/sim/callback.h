// Small-buffer callback for the scheduler's event hot path.
//
// Every simulated packet, timer and browser task schedules a closure; with
// std::function most of those closures spill to the heap (libstdc++ gives
// them 16 bytes of inline storage) and each Entry copy re-allocates. This
// type keeps callables up to kInlineBytes inside the event itself, is
// move-only, and falls back to a single heap cell for oversized captures.
// The scheduler builds each event's closure straight into its pool cell
// with emplace(), so a scheduled closure is constructed once and never
// moved.
#pragma once

#include <cassert>
#include <cstddef>
#include <cstring>
#include <new>
#include <type_traits>
#include <utility>

namespace bnm::sim {

/// Move-only type-erased `void()` callable with inline storage.
class SmallCallback {
 public:
  /// Inline capacity: fits the largest per-hop closure (two pointers plus
  /// the packet it carries by value) and every timer and task closure. A
  /// cell is built once, in place, in the scheduler's pool, so a larger
  /// buffer costs memory per cell, not an allocation.
  static constexpr std::size_t kInlineBytes = 128;

  SmallCallback() = default;

  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::decay_t<F>, SmallCallback> &&
                std::is_invocable_r_v<void, std::decay_t<F>&>>>
  SmallCallback(F&& f) {  // NOLINT(google-explicit-constructor)
    emplace(std::forward<F>(f));
  }

  /// Construct the callable from `f` directly in this callback's storage,
  /// which must be empty. Passing an rvalue SmallCallback moves it in.
  template <typename F>
  void emplace(F&& f) {
    assert(ops_ == nullptr && "emplace into a non-empty callback");
    using Fn = std::decay_t<F>;
    if constexpr (std::is_same_v<Fn, SmallCallback>) {
      static_assert(!std::is_lvalue_reference_v<F>,
                    "SmallCallback is move-only");
      move_from(f);
    } else if constexpr (fits_inline<Fn>()) {
      ::new (static_cast<void*>(buf_)) Fn(std::forward<F>(f));
      ops_ = &kInlineOps<Fn>;
    } else {
      *reinterpret_cast<void**>(buf_) = new Fn(std::forward<F>(f));
      ops_ = &kHeapOps<Fn>;
    }
  }

  SmallCallback(SmallCallback&& o) noexcept { move_from(o); }
  SmallCallback& operator=(SmallCallback&& o) noexcept {
    if (this != &o) {
      reset();
      move_from(o);
    }
    return *this;
  }
  SmallCallback(const SmallCallback&) = delete;
  SmallCallback& operator=(const SmallCallback&) = delete;

  ~SmallCallback() { reset(); }

  /// Destroy the callable, if any, leaving the callback empty.
  void reset() noexcept {
    if (ops_ != nullptr) {
      if (ops_->destroy != nullptr) ops_->destroy(buf_);
      ops_ = nullptr;
    }
  }

  void operator()() { ops_->call(buf_); }

  explicit operator bool() const { return ops_ != nullptr; }

  /// True if the callable lives in the inline buffer (no heap allocation).
  /// Exposed for the substrate micro-benchmarks and tests.
  bool is_inline() const { return ops_ != nullptr && ops_->inline_storage; }

  /// Whether a callable of type `Fn` is stored inline. Hot-path call sites
  /// static_assert it for the closures they schedule per packet.
  template <typename Fn>
  static constexpr bool fits_inline() {
    return sizeof(Fn) <= kInlineBytes && alignof(Fn) <= kInlineAlign &&
           std::is_nothrow_move_constructible_v<Fn>;
  }

 private:
  struct Ops {
    void (*call)(void* buf);
    /// Move-construct into `dst` from `src` and destroy the source.
    /// nullptr means "memcpy the whole buffer" — the fast path for
    /// trivially-copyable callables (and the heap cell's pointer).
    void (*relocate)(void* dst, void* src) noexcept;
    /// nullptr means trivially destructible: nothing to run.
    void (*destroy)(void* buf) noexcept;
    bool inline_storage;
  };

  /// Inline storage is 8-aligned (pointers, the universal lambda capture);
  /// over-aligned callables take the heap cell. Keeps the whole object —
  /// and every queue Entry embedding it — 8 bytes denser than a
  /// max_align_t buffer would.
  static constexpr std::size_t kInlineAlign = alignof(void*);

  template <typename Fn>
  static constexpr Ops kInlineOps = {
      [](void* buf) { (*std::launder(reinterpret_cast<Fn*>(buf)))(); },
      std::is_trivially_copyable_v<Fn>
          ? nullptr
          : +[](void* dst, void* src) noexcept {
              Fn* s = std::launder(reinterpret_cast<Fn*>(src));
              ::new (dst) Fn(std::move(*s));
              s->~Fn();
            },
      std::is_trivially_destructible_v<Fn>
          ? nullptr
          : +[](void* buf) noexcept {
              std::launder(reinterpret_cast<Fn*>(buf))->~Fn();
            },
      /*inline_storage=*/true,
  };

  template <typename Fn>
  static constexpr Ops kHeapOps = {
      [](void* buf) { (**reinterpret_cast<Fn**>(buf))(); },
      /*relocate=*/nullptr,  // memcpy moves the heap-cell pointer
      [](void* buf) noexcept { delete *reinterpret_cast<Fn**>(buf); },
      /*inline_storage=*/false,
  };

  void move_from(SmallCallback& o) noexcept {
    ops_ = o.ops_;
    if (ops_ != nullptr) {
      if (ops_->relocate != nullptr) {
        ops_->relocate(buf_, o.buf_);
      } else {
        std::memcpy(buf_, o.buf_, kInlineBytes);
      }
      o.ops_ = nullptr;
    }
  }

  alignas(kInlineAlign) unsigned char buf_[kInlineBytes];
  const Ops* ops_ = nullptr;
};

}  // namespace bnm::sim

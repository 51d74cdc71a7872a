#include "net/payload.h"

#include <algorithm>
#include <cstring>
#include <new>

#include "obs/metrics.h"
#include "sim/arena.h"

namespace bnm::net {

namespace {

// Counters live in the obs metrics registry (docs/OBSERVABILITY.md,
// "payload.*"); the PayloadStats accessors below stay the public API.
const obs::Counter& deep_copy_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "payload.deep_copy_bytes", "bytes",
      "bytes memcpy'd into payload buffers");
  return c;
}
const obs::Counter& aliased_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "payload.aliased_bytes", "bytes",
      "bytes shared by reference instead of copied");
  return c;
}
const obs::Counter& buffers_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "payload.buffers_allocated", "buffers",
      "PayloadBuffer allocations (arena or heap)");
  return c;
}

void count_deep(std::size_t bytes) {
  if (bytes) deep_copy_counter().add(bytes);
}
void count_alias(std::size_t bytes) {
  if (bytes) aliased_counter().add(bytes);
}
void count_buffer() { buffers_counter().add(1); }

// The empty view needs no buffer at all.
const std::uint8_t* empty_data() {
  static const std::uint8_t b = 0;
  return &b;
}

}  // namespace

/// One refcounted immutable byte buffer. Two storage modes:
///   * inline  — the bytes live directly after the header, in the same
///     block (a single arena bump or a single ::operator new);
///   * adopted — the buffer wraps a std::vector handed in by the caller
///     (zero-copy adoption; the vector keeps its own heap storage).
/// The block itself comes from the thread's current sim::Arena when one is
/// installed; deref() then skips operator delete — the arena reclaims the
/// memory wholesale at reset(). The refcount is atomic so a buffer may be
/// observed from stats/teardown paths, but arena-backed buffers are
/// thread-confined like the simulation that made them.
class PayloadBuffer {
 public:
  /// New inline buffer with `size` uninitialized bytes (size > 0).
  static PayloadBuffer* create(std::size_t size) {
    sim::Arena* arena = sim::Arena::current();
    void* mem =
        arena != nullptr
            ? arena->allocate(sizeof(PayloadBuffer) + size,
                              alignof(PayloadBuffer))
            : ::operator new(sizeof(PayloadBuffer) + size);
    return new (mem) PayloadBuffer{size, arena != nullptr};
  }

  /// Wrap a vector without copying its bytes (vector must be non-empty).
  static PayloadBuffer* adopt(std::vector<std::uint8_t>&& bytes) {
    sim::Arena* arena = sim::Arena::current();
    void* mem = arena != nullptr
                    ? arena->allocate(sizeof(PayloadBuffer),
                                      alignof(PayloadBuffer))
                    : ::operator new(sizeof(PayloadBuffer));
    return new (mem) PayloadBuffer{std::move(bytes), arena != nullptr};
  }

  void ref() { refs_.fetch_add(1, std::memory_order_relaxed); }
  void deref() {
    if (refs_.fetch_sub(1, std::memory_order_acq_rel) == 1) destroy();
  }
  std::uint32_t use_count() const {
    return refs_.load(std::memory_order_relaxed);
  }

  std::uint8_t* data() {
    return adopted_ ? vec_.data()
                    : reinterpret_cast<std::uint8_t*>(this + 1);
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

  void destroy() {
    const bool heap = !arena_backed_;
    if (adopted_) vec_.~vector();
    this->~PayloadBuffer();
    if (heap) ::operator delete(static_cast<void*>(this));
  }

  std::atomic<std::uint32_t> refs_{1};
  std::size_t size_;
  const bool adopted_;
  const bool arena_backed_;
  union {
    std::vector<std::uint8_t> vec_;  // active only when adopted_
  };
};

std::uint64_t PayloadStats::deep_copy_bytes() {
  return deep_copy_counter().total();
}
std::uint64_t PayloadStats::aliased_bytes() {
  return aliased_counter().total();
}
std::uint64_t PayloadStats::buffers_allocated() {
  return buffers_counter().total();
}
void PayloadStats::reset() {
  deep_copy_counter().reset();
  aliased_counter().reset();
  buffers_counter().reset();
}

Payload::Payload(std::vector<std::uint8_t> bytes) {
  if (bytes.empty()) return;
  size_ = bytes.size();
  buf_ = PayloadBuffer::adopt(std::move(bytes));
  count_buffer();
}

Payload::Payload(const std::string& bytes) {
  if (bytes.empty()) return;
  size_ = bytes.size();
  buf_ = PayloadBuffer::create(size_);
  std::memcpy(buf_->data(), bytes.data(), size_);
  count_buffer();
  count_deep(size_);
}

Payload Payload::copy_of(const void* data, std::size_t len) {
  count_deep(len);
  if (len == 0) return Payload{};
  PayloadBuffer* buf = PayloadBuffer::create(len);
  std::memcpy(buf->data(), data, len);
  count_buffer();
  return Payload{buf, 0, len};
}

Payload::Payload(const Payload& other)
    : buf_{other.buf_}, offset_{other.offset_}, size_{other.size_} {
  if (buf_ != nullptr) buf_->ref();
  count_alias(size_);
}

Payload& Payload::operator=(const Payload& other) {
  if (this != &other) {
    // Ref before deref so self-buffer assignment (distinct views over one
    // buffer) can never hit a zero refcount.
    if (other.buf_ != nullptr) other.buf_->ref();
    if (buf_ != nullptr) buf_->deref();
    buf_ = other.buf_;
    offset_ = other.offset_;
    size_ = other.size_;
    count_alias(size_);
  }
  return *this;
}

void Payload::release(PayloadBuffer* buf) noexcept { buf->deref(); }

const std::uint8_t* Payload::data() const {
  return buf_ != nullptr ? buf_->data() + offset_ : empty_data();
}

Payload Payload::subview(std::size_t offset, std::size_t len) const {
  if (offset >= size_) return Payload{};
  len = std::min(len, size_ - offset);
  if (len == 0) return Payload{};
  count_alias(len);
  buf_->ref();
  return Payload{buf_, offset_ + offset, len};
}

void Payload::clear() {
  if (buf_ != nullptr) buf_->deref();
  buf_ = nullptr;
  offset_ = 0;
  size_ = 0;
}

void Payload::assign(std::size_t count, std::uint8_t value) {
  clear();
  if (count == 0) return;
  size_ = count;
  buf_ = PayloadBuffer::create(count);
  std::memset(buf_->data(), value, count);
  count_buffer();
}

std::uint8_t* Payload::mutable_bytes() {
  if (buf_ == nullptr) return nullptr;  // empty view: nothing to write
  if (buf_->use_count() != 1 || offset_ != 0 || size_ != buf_->size()) {
    // Shared (or a partial view): clone so other holders keep the original.
    count_deep(size_);
    PayloadBuffer* clone = PayloadBuffer::create(size_);
    std::memcpy(clone->data(), buf_->data() + offset_, size_);
    count_buffer();
    buf_->deref();
    buf_ = clone;
    offset_ = 0;
  }
  return buf_->data();
}

std::vector<std::uint8_t> Payload::as_vector() const {
  count_deep(size_);
  return {begin(), end()};
}

std::string Payload::as_string() const {
  count_deep(size_);
  return {begin(), end()};
}

bool Payload::operator==(const Payload& other) const {
  if (size_ != other.size_) return false;
  if (size_ == 0) return true;
  if (shares_buffer_with(other) && offset_ == other.offset_) return true;
  return std::memcmp(data(), other.data(), size_) == 0;
}

bool Payload::operator==(const std::vector<std::uint8_t>& other) const {
  if (size_ != other.size()) return false;
  return size_ == 0 || std::memcmp(data(), other.data(), size_) == 0;
}

long Payload::buffer_use_count() const {
  return buf_ != nullptr ? static_cast<long>(buf_->use_count()) : 0;
}

Payload gather(const Payload* parts, std::size_t count, std::size_t skip_front,
               std::size_t total) {
  // Size the destination exactly, then copy part by part into one inline
  // buffer — no intermediate vector.
  std::size_t take_total = 0;
  for (std::size_t i = 0; i < count && take_total < total; ++i) {
    std::size_t avail = parts[i].size();
    if (i == 0) avail -= std::min(skip_front, avail);
    take_total += std::min(avail, total - take_total);
  }
  count_deep(take_total);
  if (take_total == 0) return Payload{};
  PayloadBuffer* buf = PayloadBuffer::create(take_total);
  count_buffer();
  std::uint8_t* out = buf->data();
  std::size_t written = 0;
  for (std::size_t i = 0; i < count && written < take_total; ++i) {
    const Payload& part = parts[i];
    std::size_t off = 0;
    if (i == 0) off = std::min(skip_front, part.size());
    const std::size_t take =
        std::min(part.size() - off, take_total - written);
    std::memcpy(out + written, part.data() + off, take);
    written += take;
  }
  return Payload{buf, 0, take_total};
}

std::string to_string(const Payload& p) { return p.as_string(); }

}  // namespace bnm::net

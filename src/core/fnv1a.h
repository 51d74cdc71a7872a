// 64-bit FNV-1a: the one hash behind every on-disk key and checksum in
// core — cell_config_hash, campaign_spec_hash and the checkpoint journal's
// per-record checksum (core/journal.h). Internal header; std-only so the
// schema checker (tools/bench_schema_check) can verify journals with it.
#pragma once

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <string_view>

namespace bnm::core {

/// Incremental FNV-1a. Integers hash as their 8 in-memory bytes; doubles
/// hash by bit pattern (memcpy), not by value, so any representable change
/// — including the sign of zero — changes the hash.
class Fnv1a {
 public:
  void bytes(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h_ ^= p[i];
      h_ *= 1099511628211ULL;
    }
  }
  void u64(std::uint64_t v) { bytes(&v, sizeof v); }
  void i64(std::int64_t v) { u64(static_cast<std::uint64_t>(v)); }
  void b(bool v) { u64(v ? 1 : 0); }
  void f64(double v) {
    std::uint64_t bits = 0;
    std::memcpy(&bits, &v, sizeof bits);
    u64(bits);
  }
  void str(std::string_view s) {
    u64(s.size());
    bytes(s.data(), s.size());
  }
  std::uint64_t value() const { return h_; }

 private:
  std::uint64_t h_ = 14695981039346656037ULL;
};

/// FNV-1a over raw bytes (no length prefix): the journal record checksum.
inline std::uint64_t fnv1a(std::string_view s) {
  Fnv1a h;
  h.bytes(s.data(), s.size());
  return h.value();
}

/// Fixed-width lowercase hex: the on-disk spelling of every FNV-1a value.
inline std::string hex16(std::uint64_t v) {
  char buf[17];
  std::snprintf(buf, sizeof buf, "%016llx",
                static_cast<unsigned long long>(v));
  return buf;
}

}  // namespace bnm::core

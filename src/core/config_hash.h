// The config hash: one walk over the field lists of the config structs.
//
// Each config struct lists its members once, next to its definition:
// `template <class S> static auto fields(S& s)` returns a std::tie of them
// (S may be const). Exceptions get their own list and a reason:
// gated_fields(s) is hashed only while its first member (a bool) is on, so
// an option added default-off keeps every older hash; unhashed_fields(s) is
// never hashed. hash_config() static_asserts that a struct's member count
// equals the members its lists name: an unlisted member fails the build.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <tuple>
#include <type_traits>
#include <utility>

#include "browser/profile.h"
#include "core/fnv1a.h"
#include "sim/time.h"

namespace bnm::core {
namespace config_detail {
struct AnyMember {  ///< converts to any member type; unevaluated use only
  template <class T>
  operator T() const;
};
}  // namespace config_detail

/// Member count of aggregate T: the largest N for which T{x1, ..., xN}
/// compiles with placeholders that convert to any member type.
template <class T, std::size_t N = 0>
consteval std::size_t aggregate_arity() {
  constexpr bool more = []<std::size_t... I>(std::index_sequence<I...>) {
    return requires { T{(void(I), config_detail::AnyMember{})...}; };
  }(std::make_index_sequence<N + 1>{});
  if constexpr (more) return aggregate_arity<T, N + 1>();
  return N;
}

/// Members named by T's fields(), gated_fields() and unhashed_fields().
template <class T>
consteval std::size_t listed_members() {
  T* v = nullptr;  // only named in unevaluated operands
  std::size_t n = std::tuple_size_v<decltype(T::fields(*v))>;
  if constexpr (requires { T::gated_fields(*v); }) {
    n += std::tuple_size_v<decltype(T::gated_fields(*v))>;
  }
  if constexpr (requires { T::unhashed_fields(*v); }) {
    n += std::tuple_size_v<decltype(T::unhashed_fields(*v))>;
  }
  return n;
}

/// Hash `v` into `h`: integers, enums and bools as u64, doubles by bit
/// pattern, Duration and TimePoint as nanoseconds, strings with a length
/// prefix, an optional as a presence flag then its value, a vector as its
/// size then each element, and a field-listed struct as its lists in order.
template <class T>
void hash_config(Fnv1a& h, const T& v) {
  if constexpr (std::is_same_v<T, double>) {
    h.f64(v);
  } else if constexpr (std::is_integral_v<T> || std::is_enum_v<T>) {
    h.u64(static_cast<std::uint64_t>(v));
  } else if constexpr (std::is_same_v<T, sim::Duration>) {
    h.i64(v.ns());
  } else if constexpr (std::is_same_v<T, sim::TimePoint>) {
    h.i64(v.ns_since_epoch());
  } else if constexpr (std::is_same_v<T, std::string>) {
    h.str(v);
  } else if constexpr (requires { v.has_value(); }) {  // std::optional
    h.b(v.has_value());
    if (v) hash_config(h, *v);
  } else if constexpr (requires { v.size(); }) {  // std::vector
    h.u64(v.size());
    for (const auto& element : v) hash_config(h, element);
  } else if constexpr (std::is_same_v<T, browser::BrowserProfile>) {
    // custom_profile, shallowly (checkpoint.h): label and capabilities.
    h.str(v.label());
    h.b(v.supports_websocket);
    h.b(v.supports_flash);
    h.b(v.supports_java);
    h.b(v.supports_performance_now);
    h.str(v.flash_version);
    h.str(v.java_version);
    h.str(v.browser_version);
  } else {
    static_assert(aggregate_arity<T>() == listed_members<T>(),
                  "a config struct member is missing from its field lists");
    const auto each = [&h](const auto&... f) { (hash_config(h, f), ...); };
    std::apply(each, T::fields(v));
    if constexpr (requires { T::gated_fields(v); }) {
      const auto gated = T::gated_fields(v);
      if (std::get<0>(gated)) std::apply(each, gated);
    }
  }
}

}  // namespace bnm::core

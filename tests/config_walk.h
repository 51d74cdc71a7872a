// Test-side walks over the config field lists (core/config_hash.h): engage
// every optional and fill every vector, then visit each hashed leaf (to
// perturb it and watch the hash move) or each unhashed member (to perturb
// it and watch the hash stay).
#pragma once

#include <cstddef>
#include <optional>
#include <string>
#include <tuple>
#include <type_traits>
#include <vector>

#include "browser/profile.h"
#include "sim/time.h"

namespace bnm::core::config_walk {

template <class T>
inline constexpr bool kIsOptional = false;
template <class T>
inline constexpr bool kIsOptional<std::optional<T>> = true;
template <class T>
inline constexpr bool kIsVector = false;
template <class T, class A>
inline constexpr bool kIsVector<std::vector<T, A>> = true;

/// Engage every optional, give every empty vector one element and switch
/// every gate on, through all three lists, so every leaf is reachable.
template <class T>
void fill(T& v) {
  if constexpr (kIsOptional<T>) {
    if (!v) v.emplace();
    fill(*v);
  } else if constexpr (kIsVector<T>) {
    if (v.empty()) v.emplace_back();
    for (auto& element : v) fill(element);
  } else if constexpr (requires { T::fields(v); }) {
    const auto each = [](auto&... m) { (fill(m), ...); };
    std::apply(each, T::fields(v));
    if constexpr (requires { T::gated_fields(v); }) {
      std::get<0>(T::gated_fields(v)) = true;
      std::apply(each, T::gated_fields(v));
    }
    if constexpr (requires { T::unhashed_fields(v); }) {
      std::apply(each, T::unhashed_fields(v));
    }
  }
}

enum class Members { kHashed, kUnhashed };

/// Call f on every hashed leaf (kHashed: in hash order, gated groups only
/// while their gate is on) or on every unhashed member (kUnhashed).
template <Members M, class T, class F>
void visit(T& v, F& f) {
  if constexpr (kIsOptional<T>) {
    if (v) visit<M>(*v, f);
  } else if constexpr (kIsVector<T>) {
    for (auto& element : v) visit<M>(element, f);
  } else if constexpr (requires { T::fields(v); }) {
    const auto each = [&f](auto&... m) { (visit<M>(m, f), ...); };
    std::apply(each, T::fields(v));
    if constexpr (requires { T::gated_fields(v); }) {
      const auto gated = T::gated_fields(v);
      if (std::get<0>(gated)) std::apply(each, gated);
    }
    if constexpr (M == Members::kUnhashed &&
                  requires { T::unhashed_fields(v); }) {
      std::apply([&f](auto&... m) { (f(m), ...); }, T::unhashed_fields(v));
    }
  } else if constexpr (M == Members::kHashed) {
    f(v);
  }
}

/// Change a leaf to a different value of its type.
template <class T>
void perturb(T& v) {
  if constexpr (std::is_same_v<T, bool>) {
    v = !v;
  } else if constexpr (std::is_enum_v<T>) {
    v = static_cast<T>(static_cast<std::underlying_type_t<T>>(v) ^ 1);
  } else if constexpr (std::is_arithmetic_v<T>) {
    v = static_cast<T>(v + 1);
  } else if constexpr (std::is_same_v<T, sim::Duration>) {
    v = v + sim::Duration::nanos(1);
  } else if constexpr (std::is_same_v<T, sim::TimePoint>) {
    v = v + sim::Duration::nanos(1);
  } else if constexpr (std::is_same_v<T, std::string>) {
    v += 'x';
  } else {
    static_assert(std::is_same_v<T, browser::BrowserProfile>);
    v.label_override = v.label() + "x";
  }
}

/// Number of members visit<M> reaches in v.
template <Members M, class T>
std::size_t count(T& v) {
  std::size_t n = 0;
  auto f = [&n](auto&) { ++n; };
  visit<M>(v, f);
  return n;
}

/// v with its i-th visit<M> member perturbed.
template <Members M, class T>
T perturbed(T v, std::size_t i) {
  std::size_t at = 0;
  auto f = [&](auto& m) {
    if (at++ == i) perturb(m);
  };
  visit<M>(v, f);
  return v;
}

}  // namespace bnm::core::config_walk

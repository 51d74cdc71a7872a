// Result records: one walk over the field lists of the persisted result
// structs (matrix checkpoint and report series, campaign shard aggregates).
// Each lists its persisted members once, next to its definition:
// `template <class S> static auto record_fields(S& s)` returns a std::tuple
// of Field{"key", s.member} (a JSON object, keys in list order) or a plain
// std::tie of the members (a JSON array); unpersisted members go in
// unrecorded_fields(s). For an aggregate struct the walks static_assert that
// the lists name every member (aggregate_arity, core/config_hash.h). Leaves:
// integers, doubles (exact round trip), strings, stats::QuantileSketch (its
// own to_json), and std::vector / std::array as JSON arrays.
#pragma once

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "core/config_hash.h"
#include "obs/json.h"
#include "stats/quantile_sketch.h"

namespace bnm::core {

/// One named member of a record list: renders as "name":value.
template <class T>
struct Field {
  std::string_view name;
  T& value;
};
template <class T>
Field(std::string_view, T&) -> Field<T>;

namespace record_detail {

template <class T>  ///< std::vector, std::array (strings are leaves)
concept Sequence = requires(T& v) { v.size(); v[0]; };

/// The member a list element refers to.
template <class T>
T& member(Field<T> f) { return f.value; }
template <class T>
T& member(T& v) { return v; }

/// A Field's member, after appending its `"name":` to `out`.
template <class T>
T& keyed(std::string& out, Field<T> f) {
  ((out += '"') += f.name) += "\":";
  return f.value;
}
template <class T>
T& keyed(std::string&, T& v) { return v; }

template <class T>
consteval std::size_t listed_members() {
  T* v = nullptr;  // only named in unevaluated operands
  std::size_t n = std::tuple_size_v<decltype(T::record_fields(*v))>;
  if constexpr (requires { T::unrecorded_fields(*v); }) {
    n += std::tuple_size_v<decltype(T::unrecorded_fields(*v))>;
  }
  return n;
}

/// T's record list. A struct with constructors (CampaignAggregate) cannot be
/// counted; a test counts its members instead.
template <class T, class S>
auto fields(S& v) {
  if constexpr (std::is_aggregate_v<T>) {
    static_assert(aggregate_arity<T>() == listed_members<T>(),
                  "a record struct member is missing from its field lists");
  }
  return T::record_fields(v);
}

template <class T>  ///< renders as a JSON object, not an array
inline constexpr bool named =
    requires(T& v) { std::get<0>(T::record_fields(v)).name; };

}  // namespace record_detail

/// Append v's canonical JSON text to `out`.
template <class T>
void record_json_to(std::string& out, const T& v) {
  if constexpr (std::is_same_v<T, std::string>) {
    // obs::json::escape_to's rules, except that a control character renders
    // as a space: the parser's \u decoding is lossy, so an escaped one would
    // break the byte-identity contract (and the decoder rejects one).
    out += '"';
    for (char c : v) {
      if (c == '"' || c == '\\') out += '\\';
      out += static_cast<unsigned char>(c) < 0x20 ? ' ' : c;
    }
    out += '"';
  } else if constexpr (std::is_same_v<T, double>) {
    obs::json::number_to(out, v);
  } else if constexpr (std::is_integral_v<T>) {
    obs::json::integer_to(out, static_cast<std::int64_t>(v));
  } else if constexpr (std::is_same_v<T, stats::QuantileSketch>) {
    out += v.to_json().dump();
  } else if constexpr (record_detail::Sequence<T>) {
    out += '[';
    for (std::size_t i = 0; i < v.size(); ++i) {
      if (i > 0) out += ',';
      record_json_to(out, v[i]);
    }
    out += ']';
  } else {
    out += record_detail::named<T> ? '{' : '[';
    std::apply(
        [&out](const auto& first, const auto&... rest) {
          record_json_to(out, record_detail::keyed(out, first));
          ((out += ',', record_json_to(out, record_detail::keyed(out, rest))),
           ...);
        },
        record_detail::fields<T>(v));
    out += record_detail::named<T> ? '}' : ']';
  }
}

/// v's canonical JSON text.
template <class T>
std::string record_json(const T& v) {
  std::string out;
  record_json_to(out, v);
  return out;
}

/// Decode `v` into `*out`. An integer must fit its member's type; a vector
/// takes its length from the input unless `*out` already holds elements (a
/// campaign aggregate's method and profile slots), which the input must then
/// match; a sketch must carry `*out`'s grid; an object's keys must be the
/// list's, in order. False on any mismatch, with `*out` partly written.
template <class T>
bool record_from_json(const obs::json::Value& v, T* out) {
  if constexpr (std::is_same_v<T, std::string>) {
    *out = v.as_string();
    return v.is_string() && std::none_of(out->begin(), out->end(), [](char c) {
             return static_cast<unsigned char>(c) < 0x20;
           });
  } else if constexpr (std::is_same_v<T, double>) {
    *out = v.as_double();
    return v.is_number();
  } else if constexpr (std::is_integral_v<T>) {
    *out = static_cast<T>(v.as_int());
    return v.is_int() && std::in_range<T>(v.as_int());
  } else if constexpr (std::is_same_v<T, stats::QuantileSketch>) {
    stats::QuantileSketch parsed;
    const bool ok = stats::QuantileSketch::from_json(v, &parsed) &&
                    parsed.grid() == out->grid();
    if (ok) *out = std::move(parsed);
    return ok;
  } else if constexpr (record_detail::Sequence<T>) {
    if constexpr (requires { out->resize(0); }) {
      if (out->empty()) out->resize(v.items().size());
    }
    bool ok = v.is_array() && v.items().size() == out->size();
    for (std::size_t i = 0; ok && i < out->size(); ++i) {
      ok = record_from_json(v.items()[i], &(*out)[i]);
    }
    return ok;
  } else {
    constexpr bool kNamed = record_detail::named<T>;
    auto list = record_detail::fields<T>(*out);
    const std::size_t n = kNamed ? v.members().size() : v.items().size();
    if ((kNamed ? !v.is_object() : !v.is_array()) ||
        n != std::tuple_size_v<decltype(list)>) {
      return false;
    }
    std::size_t i = 0;
    const auto one = [&](auto& field) {
      const std::size_t at = i++;
      if constexpr (kNamed) {
        return v.members()[at].first == field.name &&
               record_from_json(v.members()[at].second, &field.value);
      } else {
        return record_from_json(v.items()[at], &field);
      }
    };
    return std::apply([&](auto&... f) { return (one(f) && ...); }, list);
  }
}

/// Sum `from` into `into`: integers add, sketches merge (exact), sequences
/// add element by element (`from` at least as long).
template <class T>
void record_add(T& into, const T& from) {
  if constexpr (std::is_integral_v<T>) {
    into += from;
  } else if constexpr (std::is_same_v<T, stats::QuantileSketch>) {
    into.merge(from);
  } else if constexpr (record_detail::Sequence<T>) {
    for (std::size_t i = 0; i < into.size(); ++i) {
      record_add(into[i], from.at(i));
    }
  } else {
    auto to = record_detail::fields<T>(into);
    [&]<std::size_t... I>(const auto& add, std::index_sequence<I...>) {
      (record_add(record_detail::member(std::get<I>(to)),
                  record_detail::member(std::get<I>(add))),
       ...);
    }(record_detail::fields<T>(from),
      std::make_index_sequence<std::tuple_size_v<decltype(to)>>{});
  }
}

}  // namespace bnm::core

// Minimal JSON document model + recursive-descent parser + writer.
//
// Exists so the repo's tooling can *read back* the JSON it emits — the
// trace exporters' round-trip tests (tests/test_obs.cpp) and the bench
// schema validator (tools/bench_schema_check) both parse real output files
// with it. It is deliberately small: full JSON per RFC 8259, with \uXXXX
// escapes (surrogate pairs included) decoded to UTF-8 and lone surrogates
// or non-hex digits rejected, so every control character escape_to()
// writes parses back to itself. Not a streaming parser; documents here are
// tens of KiB.
//
// Objects preserve insertion order (vector of pairs), so a parse→write
// round trip of our own deterministic output is byte-stable apart from
// number formatting.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bnm::obs::json {

class Value;

using Member = std::pair<std::string, Value>;

class Value {
 public:
  enum class Type : std::uint8_t {
    kNull,
    kBool,
    kInt,     ///< integer-valued number (fits int64)
    kDouble,  ///< any other number
    kString,
    kArray,
    kObject,
  };

  Value() = default;
  static Value null();
  static Value boolean(bool b);
  static Value integer(std::int64_t i);
  static Value number(double d);
  static Value string(std::string s);
  static Value array();
  static Value object();

  Type type() const { return type_; }
  bool is_null() const { return type_ == Type::kNull; }
  bool is_bool() const { return type_ == Type::kBool; }
  bool is_int() const { return type_ == Type::kInt; }
  bool is_number() const {
    return type_ == Type::kInt || type_ == Type::kDouble;
  }
  bool is_string() const { return type_ == Type::kString; }
  bool is_array() const { return type_ == Type::kArray; }
  bool is_object() const { return type_ == Type::kObject; }

  bool as_bool() const { return bool_; }
  std::int64_t as_int() const { return int_; }
  double as_double() const {
    return type_ == Type::kInt ? static_cast<double>(int_) : double_;
  }
  const std::string& as_string() const { return string_; }
  const std::vector<Value>& items() const { return array_; }
  const std::vector<Member>& members() const { return object_; }

  std::vector<Value>& items() { return array_; }
  std::vector<Member>& members() { return object_; }

  /// Object member lookup (first match); nullptr when absent or not an
  /// object.
  const Value* find(std::string_view key) const;

  /// Append a member (objects) — no duplicate-key check.
  void add(std::string key, Value v);
  /// Append an element (arrays).
  void push(Value v);

  /// Compact deterministic serialization (no whitespace; members in stored
  /// order; doubles via %.17g trimmed).
  std::string dump() const;

 private:
  Type type_ = Type::kNull;
  bool bool_ = false;
  std::int64_t int_ = 0;
  double double_ = 0.0;
  std::string string_;
  std::vector<Value> array_;
  std::vector<Member> object_;
};

/// Nesting cap for parse(): the parser recurses once per array/object
/// level, so unbounded input nesting would overflow the stack. Our deepest
/// documents (campaign checkpoint records) nest about 8 levels.
inline constexpr int kMaxDepth = 128;

/// Parse one JSON document. Returns nullopt (and sets *error if given) on
/// malformed input, trailing garbage, or nesting deeper than kMaxDepth.
std::optional<Value> parse(std::string_view text, std::string* error = nullptr);

/// JSON string escaping (shared by every emitter in obs/).
void escape_to(std::string& out, std::string_view s);

/// Number spellings dump() uses, for emitters that stream JSON text:
/// integers in decimal; finite doubles as printf("%.17g") (exact round
/// trip), non-finite ones as null.
void integer_to(std::string& out, std::int64_t i);
void number_to(std::string& out, double d);

}  // namespace bnm::obs::json

#include "obs/json.h"

#include <cctype>
#include <charconv>
#include <cerrno>
#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace bnm::obs::json {

Value Value::null() { return Value{}; }

Value Value::boolean(bool b) {
  Value v;
  v.type_ = Type::kBool;
  v.bool_ = b;
  return v;
}

Value Value::integer(std::int64_t i) {
  Value v;
  v.type_ = Type::kInt;
  v.int_ = i;
  return v;
}

Value Value::number(double d) {
  Value v;
  v.type_ = Type::kDouble;
  v.double_ = d;
  return v;
}

Value Value::string(std::string s) {
  Value v;
  v.type_ = Type::kString;
  v.string_ = std::move(s);
  return v;
}

Value Value::array() {
  Value v;
  v.type_ = Type::kArray;
  return v;
}

Value Value::object() {
  Value v;
  v.type_ = Type::kObject;
  return v;
}

const Value* Value::find(std::string_view key) const {
  if (type_ != Type::kObject) return nullptr;
  for (const Member& m : object_) {
    if (m.first == key) return &m.second;
  }
  return nullptr;
}

void Value::add(std::string key, Value v) {
  object_.emplace_back(std::move(key), std::move(v));
}

void Value::push(Value v) { array_.push_back(std::move(v)); }

void escape_to(std::string& out, std::string_view s) {
  for (char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\b': out += "\\b"; break;
      case '\f': out += "\\f"; break;
      case '\n': out += "\\n"; break;
      case '\r': out += "\\r"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
}

void integer_to(std::string& out, std::int64_t i) {
  char buf[24];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, i).ptr);
}

void number_to(std::string& out, double d) {
  if (!std::isfinite(d)) {
    out += "null";  // JSON has no NaN/Inf
    return;
  }
  // Same bytes as printf("%.17g"), several times faster.
  char buf[40];
  out.append(buf, std::to_chars(buf, buf + sizeof buf, d,
                                std::chars_format::general, 17)
                      .ptr);
}

namespace {

void dump_to(const Value& v, std::string& out) {
  switch (v.type()) {
    case Value::Type::kNull:
      out += "null";
      break;
    case Value::Type::kBool:
      out += v.as_bool() ? "true" : "false";
      break;
    case Value::Type::kInt:
      integer_to(out, v.as_int());
      break;
    case Value::Type::kDouble:
      number_to(out, v.as_double());
      break;
    case Value::Type::kString:
      out += '"';
      escape_to(out, v.as_string());
      out += '"';
      break;
    case Value::Type::kArray: {
      out += '[';
      bool first = true;
      for (const Value& e : v.items()) {
        if (!first) out += ',';
        first = false;
        dump_to(e, out);
      }
      out += ']';
      break;
    }
    case Value::Type::kObject: {
      out += '{';
      bool first = true;
      for (const Member& m : v.members()) {
        if (!first) out += ',';
        first = false;
        out += '"';
        escape_to(out, m.first);
        out += "\":";
        dump_to(m.second, out);
      }
      out += '}';
      break;
    }
  }
}

class Parser {
 public:
  Parser(std::string_view text, std::string* error)
      : text_{text}, error_{error} {}

  std::optional<Value> run() {
    skip_ws();
    Value v;
    if (!parse_value(v)) return std::nullopt;
    skip_ws();
    if (pos_ != text_.size()) {
      fail("trailing characters after document");
      return std::nullopt;
    }
    return v;
  }

 private:
  std::string_view text_;
  std::string* error_;
  std::size_t pos_ = 0;
  int depth_ = 0;

  void fail(const char* what) {
    if (error_ && error_->empty()) {
      *error_ = std::string{what} + " at offset " + std::to_string(pos_);
    }
  }

  void skip_ws() {
    while (pos_ < text_.size() &&
           (text_[pos_] == ' ' || text_[pos_] == '\t' || text_[pos_] == '\n' ||
            text_[pos_] == '\r')) {
      ++pos_;
    }
  }

  bool eat(char c) {
    if (pos_ < text_.size() && text_[pos_] == c) {
      ++pos_;
      return true;
    }
    return false;
  }

  bool literal(std::string_view word) {
    if (text_.substr(pos_, word.size()) == word) {
      pos_ += word.size();
      return true;
    }
    fail("invalid literal");
    return false;
  }

  bool parse_value(Value& out) {
    if (pos_ >= text_.size()) {
      fail("unexpected end of input");
      return false;
    }
    switch (text_[pos_]) {
      case 'n':
        if (!literal("null")) return false;
        out = Value::null();
        return true;
      case 't':
        if (!literal("true")) return false;
        out = Value::boolean(true);
        return true;
      case 'f':
        if (!literal("false")) return false;
        out = Value::boolean(false);
        return true;
      case '"':
        return parse_string(out);
      case '[':
      case '{': {
        if (depth_ == kMaxDepth) {
          fail("nesting too deep");
          return false;
        }
        ++depth_;
        const bool ok =
            text_[pos_] == '[' ? parse_array(out) : parse_object(out);
        --depth_;
        return ok;
      }
      default:
        return parse_number(out);
    }
  }

  bool parse_string_raw(std::string& out) {
    if (!eat('"')) {
      fail("expected '\"'");
      return false;
    }
    while (pos_ < text_.size()) {
      char c = text_[pos_++];
      if (c == '"') return true;
      if (c == '\\') {
        if (pos_ >= text_.size()) break;
        char e = text_[pos_++];
        switch (e) {
          case '"': out += '"'; break;
          case '\\': out += '\\'; break;
          case '/': out += '/'; break;
          case 'b': out += '\b'; break;
          case 'f': out += '\f'; break;
          case 'n': out += '\n'; break;
          case 'r': out += '\r'; break;
          case 't': out += '\t'; break;
          case 'u':
            if (!parse_unicode_escape(out)) return false;
            break;
          default:
            fail("invalid escape");
            return false;
        }
      } else {
        out += c;
      }
    }
    fail("unterminated string");
    return false;
  }

  /// The four hex digits of a \u escape, as a UTF-16 code unit.
  bool parse_hex4(std::uint32_t& unit) {
    if (text_.size() - pos_ < 4) {
      fail("truncated \\u escape");
      return false;
    }
    unit = 0;
    for (const char c : text_.substr(pos_, 4)) {
      int digit = 0;
      if (c >= '0' && c <= '9') {
        digit = c - '0';
      } else if (c >= 'a' && c <= 'f') {
        digit = c - 'a' + 10;
      } else if (c >= 'A' && c <= 'F') {
        digit = c - 'A' + 10;
      } else {
        fail("non-hex digit in \\u escape");
        return false;
      }
      unit = unit << 4 | static_cast<std::uint32_t>(digit);
    }
    pos_ += 4;
    return true;
  }

  /// A \u escape (its backslash and u already read) decoded to UTF-8: a
  /// surrogate pair is one code point, a lone surrogate is an error.
  bool parse_unicode_escape(std::string& out) {
    std::uint32_t cp = 0;
    if (!parse_hex4(cp)) return false;
    if (cp >= 0xdc00 && cp <= 0xdfff) {
      fail("lone low surrogate in \\u escape");
      return false;
    }
    if (cp >= 0xd800 && cp <= 0xdbff) {
      std::uint32_t low = 0;
      if (text_.substr(pos_, 2) != "\\u") {
        fail("lone high surrogate in \\u escape");
        return false;
      }
      pos_ += 2;
      if (!parse_hex4(low)) return false;
      if (low < 0xdc00 || low > 0xdfff) {
        fail("lone high surrogate in \\u escape");
        return false;
      }
      cp = 0x10000 + ((cp - 0xd800) << 10) + (low - 0xdc00);
    }
    const auto byte = [&out](std::uint32_t b) {
      out += static_cast<char>(b);
    };
    if (cp < 0x80) {
      byte(cp);
    } else if (cp < 0x800) {
      byte(0xc0 | cp >> 6);
      byte(0x80 | (cp & 0x3f));
    } else if (cp < 0x10000) {
      byte(0xe0 | cp >> 12);
      byte(0x80 | (cp >> 6 & 0x3f));
      byte(0x80 | (cp & 0x3f));
    } else {
      byte(0xf0 | cp >> 18);
      byte(0x80 | (cp >> 12 & 0x3f));
      byte(0x80 | (cp >> 6 & 0x3f));
      byte(0x80 | (cp & 0x3f));
    }
    return true;
  }

  bool parse_string(Value& out) {
    std::string s;
    if (!parse_string_raw(s)) return false;
    out = Value::string(std::move(s));
    return true;
  }

  bool parse_number(Value& out) {
    std::size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    bool is_double = false;
    while (pos_ < text_.size()) {
      char c = text_[pos_];
      if (std::isdigit(static_cast<unsigned char>(c))) {
        ++pos_;
      } else if (c == '.' || c == 'e' || c == 'E' || c == '+' || c == '-') {
        is_double = true;
        ++pos_;
      } else {
        break;
      }
    }
    if (pos_ == start) {
      fail("expected a value");
      return false;
    }
    std::string token{text_.substr(start, pos_ - start)};
    if (!is_double) {
      errno = 0;
      char* end = nullptr;
      long long v = std::strtoll(token.c_str(), &end, 10);
      // "-0" must stay a double: collapsing it to integer 0 would drop the
      // sign and break byte-exact parse->dump round trips (the matrix
      // checkpoint's resume bit-identity contract depends on them).
      if (errno == 0 && end && *end == '\0' &&
          !(v == 0 && token[0] == '-')) {
        out = Value::integer(v);
        return true;
      }
    }
    errno = 0;
    char* end = nullptr;
    double d = std::strtod(token.c_str(), &end);
    if (!end || *end != '\0') {
      fail("malformed number");
      return false;
    }
    out = Value::number(d);
    return true;
  }

  bool parse_array(Value& out) {
    eat('[');
    out = Value::array();
    skip_ws();
    if (eat(']')) return true;
    while (true) {
      Value v;
      skip_ws();
      if (!parse_value(v)) return false;
      out.push(std::move(v));
      skip_ws();
      if (eat(']')) return true;
      if (!eat(',')) {
        fail("expected ',' or ']'");
        return false;
      }
    }
  }

  bool parse_object(Value& out) {
    eat('{');
    out = Value::object();
    skip_ws();
    if (eat('}')) return true;
    while (true) {
      skip_ws();
      std::string key;
      if (!parse_string_raw(key)) return false;
      skip_ws();
      if (!eat(':')) {
        fail("expected ':'");
        return false;
      }
      skip_ws();
      Value v;
      if (!parse_value(v)) return false;
      out.add(std::move(key), std::move(v));
      skip_ws();
      if (eat('}')) return true;
      if (!eat(',')) {
        fail("expected ',' or '}'");
        return false;
      }
    }
  }
};

}  // namespace

std::string Value::dump() const {
  std::string out;
  dump_to(*this, out);
  return out;
}

std::optional<Value> parse(std::string_view text, std::string* error) {
  if (error) error->clear();
  return Parser{text, error}.run();
}

}  // namespace bnm::obs::json

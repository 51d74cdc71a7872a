// Validates emitted JSON files against their schemas in
// docs/BENCH_SCHEMAS.md (bench_schema.h). Unknown fields, missing required
// fields and type mismatches all fail, so a format and its documentation
// cannot drift apart silently.
//
// The checker knows no format. A file's schema is the union of the tables
// under every doc heading whose file pattern matches its basename
// ("BENCH_perf_matrix.json", "BENCH_*.json gates"), one or more backticked
// full paths per row ("profile[].site", "series.samples[][]"). A file
// with a "<pattern> records" table is a checkpoint journal, checked line by
// line: header, each record, and each record's checksum. A bench gate's
// verdict is typed "true", so a failed gate fails its file.
#include "bench_schema.h"

#include <cctype>
#include <fstream>
#include <optional>
#include <sstream>

#include "core/fnv1a.h"
#include "obs/json.h"

namespace bnm::tools {
namespace {

using bnm::obs::json::Value;
using Errors = std::vector<std::string>;

// Field types, as a bit mask so a field may accept several ("bool or
// number"). kNumber accepts integers too (an integral double dumps as
// "3"); kInt does not accept doubles. kTrue is a bool that must be true:
// a bench gate's verdict.
enum FieldType : unsigned {
  kInt = 1,
  kNumber = 2,
  kBool = 4,
  kString = 8,
  kObject = 16,
  kArray = 32,
  kTrue = 64,
};

struct Field {
  std::string name;
  unsigned type;  ///< FieldType mask
  bool required = true;
  std::vector<Field> children;  // object: members; array: element schema
};

constexpr struct {
  FieldType type;
  const char* name;
} kTypeNames[] = {{kInt, "integer"}, {kNumber, "number"}, {kBool, "bool"},
                  {kString, "string"}, {kObject, "object"},
                  {kArray, "array"},   {kTrue, "true"}};

bool type_matches(const Value& v, unsigned types) {
  return ((types & kInt) && v.is_int()) ||
         ((types & kNumber) && v.is_number()) ||
         ((types & kBool) && v.is_bool()) ||
         ((types & kString) && v.is_string()) ||
         ((types & kObject) && v.is_object()) ||
         ((types & kArray) && v.is_array()) ||
         ((types & kTrue) && v.is_bool() && v.as_bool());
}

std::string type_name(unsigned types) {
  std::string out;
  for (const auto& t : kTypeNames) {
    if (!(types & t.type)) continue;
    if (!out.empty()) out += " or ";
    out += t.name;
  }
  return out;
}

void error(Errors& errs, const std::string& where, const std::string& what) {
  errs.push_back(where + ": " + what);
}

void check_object(const Value& v, const std::vector<Field>& fields,
                  const std::string& where, Errors& errs);

void check_field(const Value& v, const Field& f, const std::string& where,
                 Errors& errs) {
  if (!type_matches(v, f.type)) {
    error(errs, where, "expected " + type_name(f.type));
    return;
  }
  if (v.is_object()) {
    check_object(v, f.children, where, errs);
  } else if (v.is_array() && !f.children.empty()) {
    const Field& elem = f.children.front();
    for (std::size_t i = 0; i < v.items().size(); ++i) {
      check_field(v.items()[i], elem, where + "[" + std::to_string(i) + "]",
                  errs);
    }
  }
}

void check_object(const Value& v, const std::vector<Field>& fields,
                  const std::string& where, Errors& errs) {
  for (const auto& [key, member] : v.members()) {
    const Field* match = nullptr;
    for (const Field& f : fields) {
      if (key == f.name) {
        match = &f;
        break;
      }
    }
    if (!match) {
      error(errs, where, "unknown field \"" + key + "\"");
      continue;
    }
    check_field(member, *match, where + "." + key, errs);
  }
  for (const Field& f : fields) {
    if (f.required && !v.find(f.name)) {
      error(errs, where, "missing required field \"" + f.name + "\"");
    }
  }
}

// ---- Schemas from docs/BENCH_SCHEMAS.md ---------------------------------

struct Schema {
  std::vector<Field> document;  ///< the whole file, or a journal's header
  std::vector<Field> record;    ///< a journal's record lines; empty otherwise
};

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

bool is_name(std::string_view seg) {
  if (seg.empty()) return false;
  for (const char c : seg) {
    if (!std::isalnum(static_cast<unsigned char>(c)) && c != '_') return false;
  }
  return true;
}

/// Add the documented field at `path` ("a.b", "list[].field", "rows[][]")
/// to `fields`, creating the objects and array elements on the way as
/// required. False when a segment is not a plain name.
bool insert(std::vector<Field>& fields, std::string_view path, unsigned type,
            bool required) {
  std::vector<Field>* level = &fields;
  while (true) {
    const std::size_t dot = path.find('.');
    std::string_view seg = path.substr(0, dot);
    int depth = 0;  // trailing "[]"s: element levels below the named field
    while (seg.ends_with("[]")) {
      seg.remove_suffix(2);
      ++depth;
    }
    if (!is_name(seg)) return false;
    Field* f = nullptr;
    for (Field& candidate : *level) {
      if (candidate.name == seg) f = &candidate;
    }
    if (!f) {
      level->push_back({std::string{seg}, depth ? kArray : kObject, true, {}});
      f = &level->back();
    }
    for (int i = 1; i <= depth; ++i) {
      if (f->children.empty()) {
        f->children.push_back({"", i < depth ? kArray : kObject, true, {}});
      }
      f = &f->children.front();
    }
    if (dot == std::string_view::npos) {
      f->type = type;
      f->required = required;
      return true;
    }
    level = &f->children;
    path.remove_prefix(dot + 1);
  }
}

/// Add one table row ("| `path`, `path` | type[, optional] | notes |") to
/// `fields`. False (reason in `errs`) when it does not parse.
bool read_row(std::string_view line, std::vector<Field>& fields,
              const std::string& where, Errors& errs) {
  const std::size_t c1 = line.find('|', 1);
  const std::size_t c2 =
      c1 == std::string_view::npos ? c1 : line.find('|', c1 + 1);
  if (c2 == std::string_view::npos) {
    error(errs, where, "malformed row: " + std::string{line});
    return false;
  }
  std::string_view type_cell = trim(line.substr(c1 + 1, c2 - c1 - 1));
  const bool optional = type_cell.ends_with(", optional");
  if (optional) type_cell.remove_suffix(std::string_view{", optional"}.size());
  unsigned type = 0;
  while (!type_cell.empty()) {
    const std::size_t sep = type_cell.find(" or ");
    const std::string_view word = type_cell.substr(0, sep);
    unsigned bit = 0;
    for (const auto& t : kTypeNames) {
      if (word == t.name) bit = t.type;
    }
    if (!bit) {
      error(errs, where, "unknown type \"" + std::string{word} + "\"");
      return false;
    }
    type |= bit;
    type_cell.remove_prefix(sep == std::string_view::npos ? type_cell.size()
                                                          : sep + 4);
  }
  std::string_view paths = line.substr(1, c1 - 1);
  int count = 0;
  for (std::size_t open = paths.find('`'); open != std::string_view::npos;
       open = paths.find('`')) {
    const std::size_t close = paths.find('`', open + 1);
    if (close == std::string_view::npos) break;
    const std::string_view path = paths.substr(open + 1, close - open - 1);
    if (!insert(fields, path, type, !optional)) {
      error(errs, where, "malformed path `" + std::string{path} + "`");
      return false;
    }
    paths.remove_prefix(close + 1);
    ++count;
  }
  if (count == 0 || type == 0) {
    error(errs, where, "row names no field or type: " + std::string{line});
    return false;
  }
  return true;
}

/// Whether `base` matches a heading's file pattern: the exact name, or a
/// name with the prefix before and the suffix after the one '*'.
bool matches(std::string_view pattern, std::string_view base) {
  const std::size_t star = pattern.find('*');
  if (star == std::string_view::npos) return pattern == base;
  const std::string_view head = pattern.substr(0, star);
  const std::string_view tail = pattern.substr(star + 1);
  return base.size() >= head.size() + tail.size() && base.starts_with(head) &&
         base.ends_with(tail);
}

/// Build `base`'s schema from the first table under every heading whose
/// file pattern (its first word, ending in ".json") matches `base`; a
/// "<pattern> records" heading's table goes to schema.record. False
/// (reason in `errs`) when no heading matches, a matching heading has no
/// table, or a row does not parse.
bool read_schema(std::string_view md, std::string_view base, Schema& schema,
                 Errors& errs) {
  std::vector<Field>* into = nullptr;  // the matching heading's table
  std::string where;
  int table_line = 0;  // 1: column names, 2: separator, then rows
  bool matched = false;
  const auto table_missing = [&] {
    if (into && table_line <= 2) error(errs, where, "no table");
    return into && table_line <= 2;
  };
  while (!md.empty()) {
    const std::size_t eol = md.find('\n');
    const std::string_view line = md.substr(0, eol);
    md.remove_prefix(eol == std::string_view::npos ? md.size() : eol + 1);
    if (line.starts_with("#")) {
      if (table_missing()) return false;
      into = nullptr;
      table_line = 0;
      const std::size_t hashes = line.find_first_not_of('#');
      const std::string_view title =
          hashes == std::string_view::npos ? "" : trim(line.substr(hashes));
      const std::size_t space = title.find(' ');
      const std::string_view pattern = title.substr(0, space);
      if (!pattern.ends_with(".json") || !matches(pattern, base)) continue;
      const bool records =
          space != std::string_view::npos &&
          trim(title.substr(space)).starts_with("records");
      into = records ? &schema.record : &schema.document;
      where = "docs table \"" + std::string{line} + "\"";
      matched = true;
      continue;
    }
    if (!into) continue;
    if (!line.starts_with("|")) {
      if (table_line > 0) into = nullptr;  // end of the table
      continue;
    }
    if (++table_line <= 2) continue;
    if (!read_row(line, *into, where, errs)) return false;
  }
  if (table_missing()) return false;
  if (!matched) {
    error(errs, std::string{base}, "no schema in docs/BENCH_SCHEMAS.md");
  }
  return matched;
}

std::optional<std::string> read_text(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parse `text` as one JSON object and check it against `schema`.
void check_document(std::string_view text, const std::vector<Field>& schema,
                    const std::string& where, Errors& errs) {
  std::string parse_error;
  const std::optional<Value> doc = bnm::obs::json::parse(text, &parse_error);
  if (!doc) {
    error(errs, where, "parse failed: " + parse_error);
  } else if (!doc->is_object()) {
    error(errs, where, "top level is not an object");
  } else {
    check_object(*doc, schema, where, errs);
  }
}

// Checkpoint journals (core/journal.h): line 1 is the header object; every
// further line is a record object, a space, and the 16-hex FNV-1a of the
// object's bytes. The files checked here were closed cleanly, so a torn or
// checksum-failing line is an error, not a tail to ignore.
void check_journal(std::string_view text, const std::vector<Field>& header,
                   const std::vector<Field>& record, const std::string& where,
                   Errors& errs) {
  if (text.empty() || text.back() != '\n') {
    error(errs, where, "journal does not end with a newline");
    return;
  }
  std::size_t line_no = 1;
  for (std::size_t eol = text.find('\n'); eol != std::string_view::npos;
       eol = text.find('\n'), ++line_no) {
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol + 1);
    const std::string at = where + ":" + std::to_string(line_no);
    if (line_no == 1) {
      check_document(line, header, at, errs);
      continue;
    }
    constexpr std::size_t kSum = 16;
    if (line.size() < kSum + 2 || line[line.size() - kSum - 1] != ' ') {
      error(errs, at, "record line lacks its checksum");
      continue;
    }
    const std::string_view object = line.substr(0, line.size() - kSum - 1);
    if (line.substr(line.size() - kSum) !=
        bnm::core::hex16(bnm::core::fnv1a(object))) {
      error(errs, at, "record checksum mismatch");
      continue;
    }
    check_document(object, record, at, errs);
  }
}

}  // namespace

std::vector<std::string> check_file(const std::string& path,
                                    std::string_view bench_schemas_md) {
  const std::string base = path.substr(path.rfind('/') + 1);
  Errors errs;
  Schema schema;
  if (!read_schema(bench_schemas_md, base, schema, errs)) return errs;
  const std::optional<std::string> text = read_text(path);
  if (!text) return {"cannot read " + path};
  if (!schema.record.empty()) {
    check_journal(*text, schema.document, schema.record, base, errs);
  } else {
    check_document(*text, schema.document, base, errs);
  }
  return errs;
}

}  // namespace bnm::tools

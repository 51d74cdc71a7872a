// Validates emitted JSON files against their documented schemas
// (bench_schema.h). Unknown fields, missing required fields and type
// mismatches all fail, so a format and its documentation cannot drift
// apart silently.
//
// BENCH_* schemas are read from docs/BENCH_SCHEMAS.md itself: the file's
// table there plus the shared gates[] table, one or more backticked full
// paths per row ("profile[].site"). The formats src/ persists (REPORT_*,
// CHECKPOINT_*) are the schema trees below; checkpoints are journals,
// checked line by line: header schema, per-record schema and each
// record's checksum.
#include "bench_schema.h"

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
// "3"); kInt does not accept doubles.
enum FieldType : unsigned {
  kInt = 1,
  kNumber = 2,
  kBool = 4,
  kString = 8,
  kObject = 16,
  kArray = 32,
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
                  {kArray, "array"}};

bool type_matches(const Value& v, unsigned types) {
  return ((types & kInt) && v.is_int()) ||
         ((types & kNumber) && v.is_number()) ||
         ((types & kBool) && v.is_bool()) ||
         ((types & kString) && v.is_string()) ||
         ((types & kObject) && v.is_object()) ||
         ((types & kArray) && v.is_array());
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

// ---- BENCH_* schemas from docs/BENCH_SCHEMAS.md --------------------------

/// Heading of the table every BENCH_* file shares.
constexpr std::string_view kGatesHeading = "## Gates";

std::string_view trim(std::string_view s) {
  while (!s.empty() && s.front() == ' ') s.remove_prefix(1);
  while (!s.empty() && s.back() == ' ') s.remove_suffix(1);
  return s;
}

/// Add the documented field at `path` ("a.b", "list[].field") to `fields`,
/// creating the objects and array elements on the way as required.
void insert(std::vector<Field>& fields, std::string_view path, unsigned type,
            bool required) {
  std::vector<Field>* level = &fields;
  while (true) {
    const std::size_t dot = path.find('.');
    std::string_view seg = path.substr(0, dot);
    const bool elem = seg.ends_with("[]");
    if (elem) seg.remove_suffix(2);
    const bool last = dot == std::string_view::npos && !elem;
    Field* f = nullptr;
    for (Field& candidate : *level) {
      if (candidate.name == seg) f = &candidate;
    }
    if (!f) {
      level->push_back({std::string{seg}, elem ? kArray : kObject, true, {}});
      f = &level->back();
    }
    if (last) {
      f->type = type;
      f->required = required;
      return;
    }
    if (elem) {
      if (f->children.empty()) f->children.push_back({"", kObject, true, {}});
      if (dot == std::string_view::npos) {  // "list[]": the element's type
        f->children.front().type = type;
        return;
      }
      level = &f->children.front().children;
    } else {
      level = &f->children;
    }
    path.remove_prefix(dot + 1);
  }
}

/// Add the rows of the first table under the heading line that starts with
/// `heading` to `schema`. False (reason in `errs`) when there is no such
/// table or a row does not parse.
bool read_table(std::string_view md, std::string_view heading,
                std::vector<Field>& schema, Errors& errs) {
  const std::string where = "docs table \"" + std::string{heading} + "\"";
  bool in_section = false;
  int table_line = 0;  // 1: column names, 2: separator, then rows
  while (!md.empty()) {
    const std::size_t eol = md.find('\n');
    const std::string_view line = md.substr(0, eol);
    md.remove_prefix(eol == std::string_view::npos ? md.size() : eol + 1);
    if (!in_section) {
      in_section = line.starts_with(heading);
      continue;
    }
    if (!line.starts_with("|")) {
      if (table_line > 0) break;  // end of the table
      if (line.starts_with("## ")) break;
      continue;
    }
    if (++table_line <= 2) continue;
    // | `path`, `path` | type[, optional] | notes |
    const std::size_t c1 = line.find('|', 1);
    const std::size_t c2 = c1 == std::string_view::npos
                               ? c1
                               : line.find('|', c1 + 1);
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
      insert(schema, paths.substr(open + 1, close - open - 1), type,
             !optional);
      paths.remove_prefix(close + 1);
      ++count;
    }
    if (count == 0 || type == 0) {
      error(errs, where, "row names no field or type: " + std::string{line});
      return false;
    }
  }
  if (table_line <= 2) {
    error(errs, where, "no such table");
    return false;
  }
  return true;
}

// Shared record schema for checkpoint and matrix-report files: one entry
// per cell, keyed by the FNV-1a config hash, carrying a full OverheadSeries.
std::vector<Field> cell_record() {
  return {
      {"cell", FieldType::kInt, true, {}},
      {"config_hash", FieldType::kString, true, {}},
      {"series",
       FieldType::kObject,
       true,
       {
           {"case_label", FieldType::kString, true, {}},
           {"method_name", FieldType::kString, true, {}},
           {"failures", FieldType::kInt, true, {}},
           {"first_error", FieldType::kString, true, {}},
           {"accounting",
            FieldType::kObject,
            true,
            {
                {"timeouts", FieldType::kInt, true, {}},
                {"transport_errors", FieldType::kInt, true, {}},
                {"degraded", FieldType::kInt, true, {}},
                {"http_retries", FieldType::kInt, true, {}},
                {"http_timeouts", FieldType::kInt, true, {}},
            }},
           {"samples",
            FieldType::kArray,
            true,
            {
                {"",
                 FieldType::kArray,
                 true,
                 {
                     {"", FieldType::kNumber, true, {}},
                 }},
            }},
       }},
  };
}

// Matrix checkpoint journal header (line 1 of CHECKPOINT_*.json).
std::vector<Field> checkpoint_header() {
  return {
      {"format", FieldType::kString, true, {}},
      {"version", FieldType::kInt, true, {}},
      {"cells", FieldType::kInt, true, {}},
  };
}

std::vector<Field> matrix_report_schema() {
  std::vector<Field> fields = checkpoint_header();
  fields.push_back({"results",
                    FieldType::kArray,
                    true,
                    {
                        {"", FieldType::kObject, true, cell_record()},
                    }});
  return fields;
}

// ---- Campaign schemas --------------------------------------------------

// Derived-quantile summary of one sketch as campaign reports emit it
// (count plus finite min/max/mean and fixed percentiles, zeros when empty).
std::vector<Field> sketch_summary() {
  return {
      {"count", FieldType::kInt, true, {}},
      {"min_ms", FieldType::kNumber, true, {}},
      {"max_ms", FieldType::kNumber, true, {}},
      {"mean_ms", FieldType::kNumber, true, {}},
      {"p25_ms", FieldType::kNumber, true, {}},
      {"p50_ms", FieldType::kNumber, true, {}},
      {"p75_ms", FieldType::kNumber, true, {}},
      {"p90_ms", FieldType::kNumber, true, {}},
      {"p99_ms", FieldType::kNumber, true, {}},
  };
}

// Full mergeable sketch state (stats::QuantileSketch::to_json) as campaign
// checkpoints persist it: grid, exact counters, sparse [index, count] pairs.
std::vector<Field> sketch_state() {
  return {
      {"lo", FieldType::kNumber, true, {}},
      {"hi", FieldType::kNumber, true, {}},
      {"cells", FieldType::kInt, true, {}},
      {"count", FieldType::kInt, true, {}},
      {"min", FieldType::kNumber, true, {}},
      {"max", FieldType::kNumber, true, {}},
      {"sum_ns", FieldType::kInt, true, {}},
      {"buckets",
       FieldType::kArray,
       true,
       {
           {"",
            FieldType::kArray,
            true,
            {
                {"", FieldType::kInt, true, {}},
            }},
       }},
  };
}

// Resilience counters shared by the aggregate and report per-method rows.
void push_method_counters(std::vector<Field>* fields) {
  for (const char* name : {"clients", "samples", "timeouts",
                           "transport_errors", "degraded", "http_retries",
                           "http_timeouts"}) {
    fields->push_back({name, FieldType::kInt, true, {}});
  }
}

// One shard's CampaignAggregate (checkpoint "state" member).
std::vector<Field> campaign_aggregate() {
  std::vector<Field> method{};
  push_method_counters(&method);
  method.push_back({"d1", FieldType::kObject, true, sketch_state()});
  method.push_back({"d2", FieldType::kObject, true, sketch_state()});
  method.push_back({"overhead_us",
                    FieldType::kArray,
                    true,
                    {
                        {"", FieldType::kInt, true, {}},
                    }});
  return {
      {"clients", FieldType::kInt, true, {}},
      {"samples", FieldType::kInt, true, {}},
      {"failed_clients", FieldType::kInt, true, {}},
      {"methods",
       FieldType::kArray,
       true,
       {
           {"", FieldType::kObject, true, std::move(method)},
       }},
      {"profiles",
       FieldType::kArray,
       true,
       {
           {"",
            FieldType::kObject,
            true,
            {
                {"clients", FieldType::kInt, true, {}},
                {"samples", FieldType::kInt, true, {}},
                {"d", FieldType::kObject, true, sketch_state()},
            }},
       }},
      {"net_rtt", FieldType::kObject, true, sketch_state()},
      {"rtt_inflation", FieldType::kObject, true, sketch_state()},
  };
}

// Campaign checkpoint journal: header line, then one record per shard.
std::vector<Field> campaign_checkpoint_header() {
  return {
      {"format", FieldType::kString, true, {}},
      {"version", FieldType::kInt, true, {}},
      {"spec_hash", FieldType::kString, true, {}},
      {"clients", FieldType::kInt, true, {}},
      {"shards", FieldType::kInt, true, {}},
  };
}

std::vector<Field> campaign_shard_record() {
  return {
      {"shard", FieldType::kInt, true, {}},
      {"state", FieldType::kObject, true, campaign_aggregate()},
  };
}

std::vector<Field> campaign_report_schema() {
  std::vector<Field> method{{"kind", FieldType::kString, true, {}}};
  push_method_counters(&method);
  method.push_back({"d1", FieldType::kObject, true, sketch_summary()});
  method.push_back({"d2", FieldType::kObject, true, sketch_summary()});
  method.push_back({"overhead_us",
                    FieldType::kObject,
                    true,
                    {
                        {"bounds_us",
                         FieldType::kArray,
                         true,
                         {
                             {"", FieldType::kInt, true, {}},
                         }},
                        {"buckets",
                         FieldType::kArray,
                         true,
                         {
                             {"", FieldType::kInt, true, {}},
                         }},
                    }});
  return {
      {"format", FieldType::kString, true, {}},
      {"version", FieldType::kInt, true, {}},
      {"spec_hash", FieldType::kString, true, {}},
      {"spec",
       FieldType::kObject,
       true,
       {
           {"seed", FieldType::kInt, true, {}},
           {"clients", FieldType::kInt, true, {}},
           {"runs_per_client", FieldType::kInt, true, {}},
           {"min_rtt_window", FieldType::kInt, true, {}},
           {"rtt_median_ms", FieldType::kNumber, true, {}},
           {"lossy_fraction", FieldType::kNumber, true, {}},
           {"loss_probability", FieldType::kNumber, true, {}},
       }},
      {"totals",
       FieldType::kObject,
       true,
       {
           {"clients", FieldType::kInt, true, {}},
           {"samples", FieldType::kInt, true, {}},
           {"failed_clients", FieldType::kInt, true, {}},
       }},
      {"methods",
       FieldType::kArray,
       true,
       {
           {"", FieldType::kObject, true, std::move(method)},
       }},
      {"profiles",
       FieldType::kArray,
       true,
       {
           {"",
            FieldType::kObject,
            true,
            {
                {"case", FieldType::kString, true, {}},
                {"clients", FieldType::kInt, true, {}},
                {"samples", FieldType::kInt, true, {}},
                {"d", FieldType::kObject, true, sketch_summary()},
            }},
       }},
      {"net_rtt", FieldType::kObject, true, sketch_summary()},
      {"rtt_inflation", FieldType::kObject, true, sketch_summary()},
  };
}

// PassiveRttEstimator::report_json ("bnm.passive.report.v1"): counters,
// per-flow summaries ordered by flow label, and the raw sample list.
std::vector<Field> passive_report_schema() {
  return {
      {"schema", FieldType::kString, true, {}},
      {"label", FieldType::kString, true, {}},
      {"quantum_ns", FieldType::kInt, true, {}},
      {"counters",
       FieldType::kObject,
       true,
       {
           {"packets", FieldType::kInt, true, {}},
           {"ts_packets", FieldType::kInt, true, {}},
           {"anchors", FieldType::kInt, true, {}},
           {"duplicate_tsvals", FieldType::kInt, true, {}},
           {"retransmit_poisoned", FieldType::kInt, true, {}},
           {"suppressed_samples", FieldType::kInt, true, {}},
           {"samples", FieldType::kInt, true, {}},
           {"unmatched_echoes", FieldType::kInt, true, {}},
           {"evicted", FieldType::kInt, true, {}},
           {"half_flows", FieldType::kInt, true, {}},
       }},
      {"flows",
       FieldType::kArray,
       true,
       {
           {"",
            FieldType::kObject,
            true,
            {
                {"flow", FieldType::kString, true, {}},
                {"samples", FieldType::kInt, true, {}},
                {"min_rtt_ns", FieldType::kInt, true, {}},
                {"median_rtt_ns", FieldType::kInt, true, {}},
                {"max_rtt_ns", FieldType::kInt, true, {}},
            }},
       }},
      {"samples",
       FieldType::kArray,
       true,
       {
           {"",
            FieldType::kObject,
            true,
            {
                {"from", FieldType::kString, true, {}},
                {"to", FieldType::kString, true, {}},
                {"anchor_ns", FieldType::kInt, true, {}},
                {"rtt_ns", FieldType::kInt, true, {}},
                {"tsval", FieldType::kInt, true, {}},
                {"first", FieldType::kBool, true, {}},
            }},
       }},
  };
}

std::optional<std::string> read_text(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) return std::nullopt;
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parse `text` as one JSON object and check it against `schema`.
std::optional<Value> check_document(std::string_view text,
                                    const std::vector<Field>& schema,
                                    const std::string& where, Errors& errs) {
  std::string parse_error;
  std::optional<Value> doc = bnm::obs::json::parse(text, &parse_error);
  if (!doc) {
    error(errs, where, "parse failed: " + parse_error);
  } else if (!doc->is_object()) {
    error(errs, where, "top level is not an object");
  } else {
    check_object(*doc, schema, where, errs);
  }
  return doc;
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

// A BENCH_* result: its documented fields plus the shared gates[] block,
// and every gate passing.
void check_bench(std::string_view text, std::string_view md,
                 const std::string& base, Errors& errs) {
  std::vector<Field> schema;
  if (!read_table(md, "## " + base + " ", schema, errs) ||
      !read_table(md, kGatesHeading, schema, errs)) {
    return;
  }
  const std::optional<Value> doc = check_document(text, schema, base, errs);
  const Value* gates = doc ? doc->find("gates") : nullptr;
  if (!gates || !gates->is_array()) return;
  for (const Value& g : gates->items()) {
    const Value* pass = g.find("pass");
    if (pass && pass->is_bool() && !pass->as_bool()) {
      const Value* name = g.find("name");
      error(errs, base, "gate failed: " + (name ? name->dump() : "?"));
    }
  }
}

}  // namespace

std::vector<std::string> check_file(const std::string& path,
                                    std::string_view bench_schemas_md) {
  const std::string base = path.substr(path.rfind('/') + 1);
  std::vector<Field> schema;
  std::vector<Field> record;  // non-empty: `path` is a checkpoint journal
  if (base.starts_with("REPORT_passive")) {
    schema = passive_report_schema();
  } else if (base.starts_with("REPORT_campaign")) {
    schema = campaign_report_schema();
  } else if (base.starts_with("CHECKPOINT_campaign")) {
    // Must precede the bare CHECKPOINT prefix (matrix checkpoints).
    schema = campaign_checkpoint_header();
    record = campaign_shard_record();
  } else if (base.starts_with("CHECKPOINT")) {
    schema = checkpoint_header();
    record = cell_record();
  } else if (base.starts_with("REPORT_matrix")) {
    schema = matrix_report_schema();
  } else if (!base.starts_with("BENCH_")) {
    return {base + ": no schema registered"};
  }

  const std::optional<std::string> text = read_text(path);
  if (!text) return {"cannot read " + path};
  Errors errs;
  if (base.starts_with("BENCH_")) {
    check_bench(*text, bench_schemas_md, base, errs);
  } else if (record.empty()) {
    check_document(*text, schema, base, errs);
  } else {
    check_journal(*text, schema, record, base, errs);
  }
  return errs;
}

}  // namespace bnm::tools

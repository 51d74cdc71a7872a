// Validates emitted BENCH_*.json files against the schemas documented in
// docs/BENCH_SCHEMAS.md. scripts/check.sh runs this after the benches:
// unknown fields, missing required fields, and type mismatches all fail
// the check, so the documented schema and the emitters cannot drift apart
// silently.
//
//   bench_schema_check BENCH_perf_matrix.json BENCH_obs_overhead.json ...
//
// The schema each file is checked against is chosen by its basename.
// Checkpoints (CHECKPOINT_*.json) are journals, checked line by line:
// header schema, per-record schema and each record's checksum.
#include <cstdio>
#include <cstring>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "core/fnv1a.h"
#include "obs/json.h"

namespace {

using bnm::obs::json::Value;

// A field type in the schema tree. kNumber accepts integers too (printf
// emitters write "0" for a zero double); kInt does not accept doubles.
enum class FieldType { kInt, kNumber, kBool, kString, kObject, kArray };

struct Field {
  const char* name;
  FieldType type;
  bool required = true;
  std::vector<Field> children;  // kObject: members; kArray: element schema
};

bool type_matches(const Value& v, FieldType t) {
  switch (t) {
    case FieldType::kInt: return v.is_int();
    case FieldType::kNumber: return v.is_number();
    case FieldType::kBool: return v.is_bool();
    case FieldType::kString: return v.is_string();
    case FieldType::kObject: return v.is_object();
    case FieldType::kArray: return v.is_array();
  }
  return false;
}

const char* type_name(FieldType t) {
  switch (t) {
    case FieldType::kInt: return "integer";
    case FieldType::kNumber: return "number";
    case FieldType::kBool: return "bool";
    case FieldType::kString: return "string";
    case FieldType::kObject: return "object";
    case FieldType::kArray: return "array";
  }
  return "?";
}

int g_errors = 0;

void error(const std::string& where, const std::string& what) {
  std::fprintf(stderr, "schema: %s: %s\n", where.c_str(), what.c_str());
  ++g_errors;
}

void check_object(const Value& v, const std::vector<Field>& fields,
                  const std::string& where);

void check_field(const Value& v, const Field& f, const std::string& where) {
  if (!type_matches(v, f.type)) {
    error(where, std::string{"expected "} + type_name(f.type));
    return;
  }
  if (f.type == FieldType::kObject) {
    check_object(v, f.children, where);
  } else if (f.type == FieldType::kArray && !f.children.empty()) {
    const Field& elem = f.children.front();
    for (std::size_t i = 0; i < v.items().size(); ++i) {
      check_field(v.items()[i], elem, where + "[" + std::to_string(i) + "]");
    }
  }
}

void check_object(const Value& v, const std::vector<Field>& fields,
                  const std::string& where) {
  for (const auto& [key, member] : v.members()) {
    const Field* match = nullptr;
    for (const Field& f : fields) {
      if (key == f.name) {
        match = &f;
        break;
      }
    }
    if (!match) {
      error(where, "unknown field \"" + key + "\"");
      continue;
    }
    check_field(member, *match, where + "." + key);
  }
  for (const Field& f : fields) {
    if (f.required && !v.find(f.name)) {
      error(where, std::string{"missing required field \""} + f.name + "\"");
    }
  }
}

// ---- Schemas (docs/BENCH_SCHEMAS.md is the prose counterpart) ----------

std::vector<Field> perf_matrix_schema() {
  return {
      {"hardware_concurrency", FieldType::kInt, true, {}},
      {"matrix",
       FieldType::kObject,
       true,
       {
           {"cells", FieldType::kInt, true, {}},
           {"runs_per_cell", FieldType::kInt, true, {}},
           {"jobs", FieldType::kInt, true, {}},
           {"serial_ms", FieldType::kNumber, true, {}},
           {"parallel_ms", FieldType::kNumber, true, {}},
           {"speedup", FieldType::kNumber, true, {}},
           {"parallel_meaningful", FieldType::kBool, true, {}},
           {"parallel_note", FieldType::kString, false, {}},
           {"identical", FieldType::kBool, true, {}},
           {"arena",
            FieldType::kObject,
            true,
            {
                {"stats_compiled", FieldType::kBool, true, {}},
                {"allocs_avoided", FieldType::kInt, true, {}},
                {"bytes_served", FieldType::kInt, true, {}},
                {"peak_arena_bytes", FieldType::kInt, true, {}},
                {"off_serial_ms", FieldType::kNumber, true, {}},
                {"identical_on_off", FieldType::kBool, true, {}},
            }},
           {"queue",
            FieldType::kObject,
            true,
            {
                {"heap_serial_ms", FieldType::kNumber, true, {}},
                {"identical_calendar_heap", FieldType::kBool, true, {}},
            }},
       }},
      {"checkpoint",
       FieldType::kObject,
       true,
       {
           {"baseline_ms", FieldType::kNumber, true, {}},
           {"disabled_ms", FieldType::kNumber, true, {}},
           {"enabled_ms", FieldType::kNumber, true, {}},
           {"disabled_overhead_percent", FieldType::kNumber, true, {}},
           {"disabled_delta_ms", FieldType::kNumber, true, {}},
           {"enabled_overhead_percent", FieldType::kNumber, true, {}},
           {"enabled_delta_ms", FieldType::kNumber, true, {}},
           {"identical", FieldType::kBool, true, {}},
       }},
      {"capture_scan",
       FieldType::kObject,
       true,
       {
           {"records", FieldType::kInt, true, {}},
           {"window_lookups", FieldType::kInt, true, {}},
           {"linear_ms", FieldType::kNumber, true, {}},
           {"indexed_ms", FieldType::kNumber, true, {}},
           {"speedup", FieldType::kNumber, true, {}},
       }},
      {"scheduler",
       FieldType::kObject,
       true,
       {
           {"events", FieldType::kInt, true, {}},
           {"schedule_ns_per_event", FieldType::kNumber, true, {}},
           {"post_ns_per_event", FieldType::kNumber, true, {}},
           {"events_per_sec", FieldType::kNumber, true, {}},
           {"calendar_ns_per_event", FieldType::kNumber, true, {}},
           {"heap_ns_per_event", FieldType::kNumber, true, {}},
           {"queue_speedup", FieldType::kNumber, true, {}},
           {"batched_ns_per_event", FieldType::kNumber, true, {}},
           {"stepwise_ns_per_event", FieldType::kNumber, true, {}},
           {"batch_speedup", FieldType::kNumber, true, {}},
           {"pooled_control_blocks", FieldType::kInt, true, {}},
       }},
      {"profile",
       FieldType::kArray,
       false,
       {
           {"",
            FieldType::kObject,
            true,
            {
                {"site", FieldType::kString, true, {}},
                {"calls", FieldType::kInt, true, {}},
                {"total_ms", FieldType::kNumber, true, {}},
                {"avg_us", FieldType::kNumber, true, {}},
                {"max_us", FieldType::kNumber, true, {}},
            }},
       }},
  };
}

std::vector<Field> copy_counts() {
  return {
      {"deep_copy_bytes", FieldType::kInt, true, {}},
      {"aliased_bytes", FieldType::kInt, true, {}},
      {"old_design_bytes", FieldType::kInt, true, {}},
      {"buffers_allocated", FieldType::kInt, true, {}},
      {"copy_reduction", FieldType::kNumber, true, {}},
  };
}

std::vector<Field> payload_copy_schema() {
  std::vector<Field> tcp_bulk = {
      {"transfer_bytes", FieldType::kInt, true, {}},
      {"echoed_bytes", FieldType::kInt, true, {}},
  };
  std::vector<Field> probe_matrix = {
      {"cells", FieldType::kInt, true, {}},
      {"runs_per_cell", FieldType::kInt, true, {}},
  };
  for (Field& f : copy_counts()) {
    tcp_bulk.push_back(f);
    probe_matrix.push_back(f);
  }
  return {
      {"tcp_bulk", FieldType::kObject, true, std::move(tcp_bulk)},
      {"probe_matrix", FieldType::kObject, true, std::move(probe_matrix)},
      {"handoff",
       FieldType::kObject,
       true,
       {
           {"payload_bytes", FieldType::kInt, true, {}},
           {"handoffs", FieldType::kInt, true, {}},
           {"alias_ns_per_packet", FieldType::kNumber, true, {}},
           {"deep_copy_ns_per_packet", FieldType::kNumber, true, {}},
       }},
  };
}

std::vector<Field> fault_overhead_schema() {
  return {
      {"pipeline",
       FieldType::kObject,
       true,
       {
           {"packets", FieldType::kInt, true, {}},
           {"direct_ns_per_packet", FieldType::kNumber, true, {}},
           {"disabled_ns_per_packet", FieldType::kNumber, true, {}},
           {"active_ns_per_packet", FieldType::kNumber, true, {}},
       }},
      {"experiment",
       FieldType::kObject,
       true,
       {
           {"cells", FieldType::kInt, true, {}},
           {"runs_per_cell", FieldType::kInt, true, {}},
           {"best_of", FieldType::kInt, true, {}},
           {"baseline_ms", FieldType::kNumber, true, {}},
           {"disabled_ms", FieldType::kNumber, true, {}},
           {"overhead_percent", FieldType::kNumber, true, {}},
           {"identical", FieldType::kBool, true, {}},
       }},
  };
}

std::vector<Field> obs_overhead_schema() {
  return {
      {"micro",
       FieldType::kObject,
       true,
       {
           {"iters", FieldType::kInt, true, {}},
           {"raw_add_ns", FieldType::kNumber, true, {}},
           {"counter_add_ns", FieldType::kNumber, true, {}},
           {"profscope_disabled_ns", FieldType::kNumber, true, {}},
           {"profscope_enabled_ns", FieldType::kNumber, true, {}},
           {"trace_emit_disabled_ns", FieldType::kNumber, true, {}},
       }},
      {"experiment",
       FieldType::kObject,
       true,
       {
           {"cells", FieldType::kInt, true, {}},
           {"runs_per_cell", FieldType::kInt, true, {}},
           {"best_of", FieldType::kInt, true, {}},
           {"disabled_ms", FieldType::kNumber, true, {}},
           {"enabled_ms", FieldType::kNumber, true, {}},
           {"measured_overhead_percent", FieldType::kNumber, true, {}},
           {"profiled_scope_entries", FieldType::kInt, true, {}},
           {"est_disabled_overhead_percent", FieldType::kNumber, true, {}},
           {"identical", FieldType::kBool, true, {}},
       }},
      {"registry",
       FieldType::kObject,
       true,
       {
           {"metrics", FieldType::kInt, true, {}},
           {"snapshot_bytes", FieldType::kInt, true, {}},
           {"snapshot_identical", FieldType::kBool, true, {}},
       }},
  };
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

std::vector<Field> campaign_scale_schema() {
  return {
      {"clients", FieldType::kInt, true, {}},
      {"runs_per_client", FieldType::kInt, true, {}},
      {"shards", FieldType::kInt, true, {}},
      {"jobs", FieldType::kInt, true, {}},
      {"wall_ms", FieldType::kNumber, true, {}},
      {"clients_per_sec", FieldType::kNumber, true, {}},
      {"samples", FieldType::kInt, true, {}},
      {"failed_clients", FieldType::kInt, true, {}},
      {"identity",
       FieldType::kObject,
       true,
       {
           {"clients", FieldType::kInt, true, {}},
           {"report_bytes", FieldType::kInt, true, {}},
           {"identical_shards", FieldType::kBool, true, {}},
       }},
      {"memory",
       FieldType::kObject,
       true,
       {
           {"aggregate_bytes", FieldType::kInt, true, {}},
           {"independent_of_clients", FieldType::kBool, true, {}},
           {"peak_rss_kb", FieldType::kInt, true, {}},
           {"per_shards",
            FieldType::kArray,
            true,
            {
                {"",
                 FieldType::kObject,
                 true,
                 {
                     {"shards", FieldType::kInt, true, {}},
                     {"aggregation_bytes", FieldType::kInt, true, {}},
                 }},
            }},
       }},
  };
}

std::vector<Field> passive_scale_schema() {
  return {
      {"packets", FieldType::kInt, true, {}},
      {"flows", FieldType::kInt, true, {}},
      {"wall_ms", FieldType::kNumber, true, {}},
      {"packets_per_sec", FieldType::kNumber, true, {}},
      {"samples", FieldType::kInt, true, {}},
      {"duplicate_tsvals", FieldType::kInt, true, {}},
      {"sample_yield", FieldType::kNumber, true, {}},
      {"report_ms", FieldType::kNumber, true, {}},
      {"report_packets_per_sec", FieldType::kNumber, true, {}},
      {"report_bytes", FieldType::kInt, true, {}},
      {"identical_reports", FieldType::kBool, true, {}},
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

bool has_prefix(const char* s, const char* prefix) {
  return std::strncmp(s, prefix, std::strlen(prefix)) == 0;
}

const char* basename_of(const char* path) {
  const char* slash = std::strrchr(path, '/');
  return slash ? slash + 1 : path;
}

std::optional<std::string> read_text(const char* path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    std::fprintf(stderr, "schema: cannot read %s\n", path);
    return std::nullopt;
  }
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Parse `text` as one JSON object and check it against `schema`.
void check_document(std::string_view text, const std::vector<Field>& schema,
                    const std::string& where) {
  std::string parse_error;
  const auto doc = bnm::obs::json::parse(text, &parse_error);
  if (!doc) {
    error(where, "parse failed: " + parse_error);
  } else if (!doc->is_object()) {
    error(where, "top level is not an object");
  } else {
    check_object(*doc, schema, where);
  }
}

// Checkpoint journals (core/journal.h): line 1 is the header object; every
// further line is a record object, a space, and the 16-hex FNV-1a of the
// object's bytes. The files checked here were closed cleanly, so a torn or
// checksum-failing line is an error, not a tail to ignore.
void check_journal(std::string_view text, const std::vector<Field>& header,
                   const std::vector<Field>& record, const std::string& where) {
  if (text.empty() || text.back() != '\n') {
    error(where, "journal does not end with a newline");
    return;
  }
  std::size_t line_no = 1;
  for (std::size_t eol = text.find('\n'); eol != std::string_view::npos;
       eol = text.find('\n'), ++line_no) {
    const std::string_view line = text.substr(0, eol);
    text.remove_prefix(eol + 1);
    const std::string at = where + ":" + std::to_string(line_no);
    if (line_no == 1) {
      check_document(line, header, at);
      continue;
    }
    constexpr std::size_t kSum = 16;
    if (line.size() < kSum + 2 || line[line.size() - kSum - 1] != ' ') {
      error(at, "record line lacks its checksum");
      continue;
    }
    const std::string_view object = line.substr(0, line.size() - kSum - 1);
    if (line.substr(line.size() - kSum) !=
        bnm::core::hex16(bnm::core::fnv1a(object))) {
      error(at, "record checksum mismatch");
      continue;
    }
    check_document(object, record, at);
  }
}

int check_file(const char* path) {
  const char* base = basename_of(path);
  std::vector<Field> schema;
  std::vector<Field> record;  // non-empty: `path` is a checkpoint journal
  if (!std::strcmp(base, "BENCH_perf_matrix.json")) {
    schema = perf_matrix_schema();
  } else if (!std::strcmp(base, "BENCH_payload_copy.json")) {
    schema = payload_copy_schema();
  } else if (!std::strcmp(base, "BENCH_fault_overhead.json")) {
    schema = fault_overhead_schema();
  } else if (!std::strcmp(base, "BENCH_obs_overhead.json")) {
    schema = obs_overhead_schema();
  } else if (!std::strcmp(base, "BENCH_campaign_scale.json")) {
    schema = campaign_scale_schema();
  } else if (!std::strcmp(base, "BENCH_passive_scale.json")) {
    schema = passive_scale_schema();
  } else if (has_prefix(base, "REPORT_passive")) {
    schema = passive_report_schema();
  } else if (has_prefix(base, "REPORT_campaign")) {
    schema = campaign_report_schema();
  } else if (has_prefix(base, "CHECKPOINT_campaign")) {
    // Must precede the bare CHECKPOINT prefix (matrix checkpoints).
    schema = campaign_checkpoint_header();
    record = campaign_shard_record();
  } else if (has_prefix(base, "CHECKPOINT")) {
    schema = checkpoint_header();
    record = cell_record();
  } else if (has_prefix(base, "REPORT_matrix")) {
    schema = matrix_report_schema();
  } else {
    std::fprintf(stderr, "schema: no schema registered for %s\n", base);
    return 1;
  }

  const std::optional<std::string> text = read_text(path);
  if (!text) return 1;
  const int before = g_errors;
  if (record.empty()) {
    check_document(*text, schema, base);
  } else {
    check_journal(*text, schema, record, base);
  }
  if (g_errors != before) return 1;
  std::printf("schema: %s OK\n", base);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr, "usage: bench_schema_check BENCH_*.json...\n");
    return 2;
  }
  int rc = 0;
  for (int i = 1; i < argc; ++i) rc |= check_file(argv[i]);
  return rc;
}

#include "core/checkpoint.h"

#include <algorithm>
#include <cstdio>

#include "core/config_hash.h"
#include "core/fnv1a.h"
#include "core/journal.h"
#include "obs/metrics.h"
#include "obs/prof.h"

namespace bnm::core {
namespace {

using obs::json::Value;

// ---------------------------------------------------------------------------
// JSON helpers.

/// Accept both number encodings: dump() writes an integral-valued double as
/// "3" (%.17g), which parses back as kInt — both must read as the same value.
bool read_number(const Value* v, double* out) {
  if (!v || !v->is_number()) return false;
  *out = v->as_double();
  return true;
}

bool read_int(const Value* v, std::int64_t* out) {
  if (!v || v->type() != Value::Type::kInt) return false;
  *out = v->as_int();
  return true;
}

bool read_string(const Value* v, std::string* out) {
  if (!v || v->type() != Value::Type::kString) return false;
  *out = v->as_string();
  return true;
}

/// Error strings pass through escape() -> parse_string_raw(); the parser's
/// \u decoding is lossy, so control characters would break the byte-identity
/// contract. Sanitize them once at serialization time — both the clean run's
/// report and the resumed run's then agree byte for byte.
std::string printable(const std::string& s) {
  std::string out = s;
  for (char& c : out) {
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
  }
  return out;
}

/// The canonical series encoding, streamed straight into `out`: journal
/// records and matrix reports render every cell through it without
/// building a Value tree, and series_to_json parses its output.
void series_json_to(std::string& out, const OverheadSeries& series) {
  using obs::json::escape_to;
  using obs::json::integer_to;
  const SampleAccounting& acc = series.accounting;
  out += "{\"case_label\":\"";
  escape_to(out, series.case_label);
  out += "\",\"method_name\":\"";
  escape_to(out, series.method_name);
  out += "\",\"failures\":";
  integer_to(out, series.failures);
  out += ",\"first_error\":\"";
  escape_to(out, printable(series.first_error));
  out += "\",\"accounting\":{\"timeouts\":";
  integer_to(out, acc.timeouts);
  out += ",\"transport_errors\":";
  integer_to(out, acc.transport_errors);
  out += ",\"degraded\":";
  integer_to(out, acc.degraded);
  out += ",\"http_retries\":";
  integer_to(out, static_cast<std::int64_t>(acc.http_retries));
  out += ",\"http_timeouts\":";
  integer_to(out, static_cast<std::int64_t>(acc.http_timeouts));
  out += "},\"samples\":[";
  for (std::size_t i = 0; i < series.samples.size(); ++i) {
    const OverheadSample& x = series.samples[i];
    out += i == 0 ? "[" : ",[";
    for (double d : {x.d1_ms, x.d2_ms, x.browser_rtt1_ms, x.browser_rtt2_ms,
                     x.net_rtt1_ms, x.net_rtt2_ms}) {
      obs::json::number_to(out, d);
      out += ',';
    }
    integer_to(out, x.connections_opened1);
    out += ',';
    integer_to(out, x.connections_opened2);
    out += ']';
  }
  out += "]}";
}

/// One cell record: the shape shared by journal lines and report results.
std::string record_json(std::size_t cell, const std::string& config_hash,
                        const OverheadSeries& series) {
  std::string out;
  out.reserve(320 + 160 * series.samples.size());  // one allocation
  out += "{\"cell\":";
  obs::json::integer_to(out, static_cast<std::int64_t>(cell));
  out += ",\"config_hash\":\"";
  out += config_hash;  // 16 hex digits: nothing to escape
  out += "\",\"series\":";
  series_json_to(out, series);
  out += '}';
  return out;
}

bool sample_from_json(const Value& v, OverheadSample* out) {
  if (v.type() != Value::Type::kArray || v.items().size() != 8) return false;
  const auto& it = v.items();
  std::int64_t co1 = 0, co2 = 0;
  if (!read_number(&it[0], &out->d1_ms) || !read_number(&it[1], &out->d2_ms) ||
      !read_number(&it[2], &out->browser_rtt1_ms) ||
      !read_number(&it[3], &out->browser_rtt2_ms) ||
      !read_number(&it[4], &out->net_rtt1_ms) ||
      !read_number(&it[5], &out->net_rtt2_ms) || !read_int(&it[6], &co1) ||
      !read_int(&it[7], &co2)) {
    return false;
  }
  out->connections_opened1 = static_cast<int>(co1);
  out->connections_opened2 = static_cast<int>(co2);
  return true;
}

// --- metrics (docs/OBSERVABILITY.md catalog) -------------------------------

const obs::Counter& cells_written_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "checkpoint.cells_written", "cells",
      "completed cells recorded by CheckpointWriter::add");
  return c;
}

const obs::Counter& flushes_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "checkpoint.flushes", "flushes",
      "checkpoint journal fflushes that pushed appended records to the file");
  return c;
}

const obs::Counter& bytes_written_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "checkpoint.bytes_written", "bytes",
      "checkpoint journal bytes written: header, carried and appended records");
  return c;
}

}  // namespace

bool write_file_atomic(const std::string& path, const std::string& contents) {
  const std::string tmp = path + ".tmp";
  std::FILE* f = std::fopen(tmp.c_str(), "wb");
  if (!f) return false;
  const std::size_t n = std::fwrite(contents.data(), 1, contents.size(), f);
  const bool write_ok = n == contents.size() && std::fclose(f) == 0;
  if (!write_ok || std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    return false;
  }
  return true;
}

std::uint64_t cell_config_hash(const ExperimentConfig& config) {
  Fnv1a h;
  hash_config(h, config);
  return h.value();
}

std::string cell_config_hash_hex(const ExperimentConfig& config) {
  return hex16(cell_config_hash(config));
}

obs::json::Value series_to_json(const OverheadSeries& series) {
  std::string text;
  series_json_to(text, series);
  return *obs::json::parse(text);  // our own encoding always parses
}

std::optional<OverheadSeries> series_from_json(const obs::json::Value& v) {
  if (v.type() != Value::Type::kObject) return std::nullopt;
  OverheadSeries out;
  std::int64_t failures = 0;
  if (!read_string(v.find("case_label"), &out.case_label) ||
      !read_string(v.find("method_name"), &out.method_name) ||
      !read_int(v.find("failures"), &failures) ||
      !read_string(v.find("first_error"), &out.first_error)) {
    return std::nullopt;
  }
  out.failures = static_cast<int>(failures);
  const Value* acc = v.find("accounting");
  if (!acc || acc->type() != Value::Type::kObject) return std::nullopt;
  std::int64_t timeouts = 0, transport = 0, degraded = 0, retries = 0,
               http_timeouts = 0;
  if (!read_int(acc->find("timeouts"), &timeouts) ||
      !read_int(acc->find("transport_errors"), &transport) ||
      !read_int(acc->find("degraded"), &degraded) ||
      !read_int(acc->find("http_retries"), &retries) ||
      !read_int(acc->find("http_timeouts"), &http_timeouts)) {
    return std::nullopt;
  }
  out.accounting.timeouts = static_cast<int>(timeouts);
  out.accounting.transport_errors = static_cast<int>(transport);
  out.accounting.degraded = static_cast<int>(degraded);
  out.accounting.http_retries = static_cast<std::uint64_t>(retries);
  out.accounting.http_timeouts = static_cast<std::uint64_t>(http_timeouts);
  const Value* samples = v.find("samples");
  if (!samples || samples->type() != Value::Type::kArray) return std::nullopt;
  out.samples.reserve(samples->items().size());
  for (const Value& s : samples->items()) {
    OverheadSample sample;
    if (!sample_from_json(s, &sample)) return std::nullopt;
    out.samples.push_back(sample);
  }
  return out;
}

// ---------------------------------------------------------------------------
// Writer.

namespace {

std::string header_json(std::size_t total_cells) {
  Value h = Value::object();
  h.add("format", Value::string(kCheckpointFormat));
  h.add("version", Value::integer(kCheckpointVersion));
  h.add("cells", Value::integer(static_cast<std::int64_t>(total_cells)));
  return h.dump();
}

std::vector<std::string> records_json(
    const std::vector<CheckpointRecord>& records) {
  std::vector<std::string> out;
  out.reserve(records.size());
  for (const CheckpointRecord& r : records) {
    out.push_back(record_json(r.cell, r.config_hash, r.series));
  }
  return out;
}

}  // namespace

CheckpointWriter::CheckpointWriter(std::string path, std::size_t total_cells,
                                   int flush_every,
                                   const std::vector<CheckpointRecord>& carried)
    : path_{std::move(path)},
      journal_{std::make_unique<JournalWriter>(
          path_, header_json(total_cells), records_json(carried), flush_every,
          flushes_counter(), &bytes_written_counter())} {}

CheckpointWriter::~CheckpointWriter() = default;

void CheckpointWriter::add(std::size_t cell, const ExperimentConfig& config,
                           const OverheadSeries& series) {
  {
    BNM_PROF_SCOPE("checkpoint.flush");
    journal_->append(record_json(cell, cell_config_hash_hex(config), series));
  }
  cells_written_counter().add();
}

std::size_t CheckpointWriter::records() const { return journal_->records(); }

// ---------------------------------------------------------------------------
// Reader.

std::optional<CheckpointReader> CheckpointReader::load(const std::string& path,
                                                       std::string* error) {
  const auto fail = [&](const std::string& what) {
    if (error) *error = what;
    return std::nullopt;
  };
  std::optional<Journal> journal = read_journal(path, error);
  if (!journal) return std::nullopt;
  const Value& header = journal->header;
  std::string format;
  std::int64_t version = 0, cells = 0;
  if (!read_string(header.find("format"), &format) ||
      format != kCheckpointFormat) {
    return fail("missing/unknown format marker");
  }
  if (!read_int(header.find("version"), &version) ||
      version != kCheckpointVersion) {
    return fail("unsupported checkpoint version");
  }
  if (!read_int(header.find("cells"), &cells) || cells < 0) {
    return fail("missing cell count");
  }
  CheckpointReader reader;
  reader.total_cells_ = static_cast<std::size_t>(cells);
  // A checksummed record that does not decode ends the intact prefix just
  // like a torn line does.
  for (const Value& r : journal->records) {
    std::int64_t cell = 0;
    CheckpointRecord rec;
    const Value* series = r.find("series");
    std::optional<OverheadSeries> parsed;
    if (!read_int(r.find("cell"), &cell) || cell < 0 ||
        !read_string(r.find("config_hash"), &rec.config_hash) || !series ||
        !(parsed = series_from_json(*series))) {
      break;
    }
    rec.cell = static_cast<std::size_t>(cell);
    rec.series = std::move(*parsed);
    reader.records_[rec.cell] = std::move(rec);
  }
  return reader;
}

const OverheadSeries* CheckpointReader::lookup(
    std::size_t cell, const ExperimentConfig& config) const {
  auto it = records_.find(cell);
  if (it == records_.end()) return nullptr;
  if (it->second.config_hash != cell_config_hash_hex(config)) return nullptr;
  return &it->second.series;
}

// ---------------------------------------------------------------------------
// Canonical matrix report.

std::string matrix_report_json(const std::vector<ExperimentConfig>& cells,
                               const std::vector<OverheadSeries>& results) {
  const std::size_t n = std::min(cells.size(), results.size());
  std::string text = "{\"format\":\"bnm-matrix-report\",\"version\":1,"
                     "\"cells\":";
  obs::json::integer_to(text, static_cast<std::int64_t>(cells.size()));
  text += ",\"results\":[";
  for (std::size_t i = 0; i < n; ++i) {
    if (i > 0) text += ',';
    text += record_json(i, cell_config_hash_hex(cells[i]), results[i]);
  }
  text += "]}\n";
  return text;
}

}  // namespace bnm::core

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

/// The journal's first line.
struct Header {
  std::string format = kCheckpointFormat;
  int version = kCheckpointVersion;
  std::size_t cells = 0;

  template <class S>  ///< record field list (core/record.h)
  static auto record_fields(S& s) {
    return std::tuple{
        Field{"format", s.format}, Field{"version", s.version},
        Field{"cells", s.cells}};
  }
};

/// One cell record: the shape shared by journal lines and report results,
/// CheckpointRecord's list with the series borrowed instead of copied.
std::string cell_record_json(std::size_t cell,
                             const std::string& config_hash,
                             const OverheadSeries& series) {
  std::string out;
  out.reserve(320 + 160 * series.samples.size());  // one allocation
  out += "{\"cell\":";
  obs::json::integer_to(out, static_cast<std::int64_t>(cell));
  out += ",\"config_hash\":\"";
  out += config_hash;  // 16 hex digits: nothing to escape
  out += "\",\"series\":";
  record_json_to(out, series);
  out += '}';
  return out;
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
  return *obs::json::parse(record_json(series));  // our encoding parses
}

std::optional<OverheadSeries> series_from_json(const obs::json::Value& v) {
  OverheadSeries out;
  if (!record_from_json(v, &out)) return std::nullopt;
  return out;
}

// ---------------------------------------------------------------------------
// Writer.

namespace {

std::vector<std::string> records_json(
    const std::vector<CheckpointRecord>& records) {
  std::vector<std::string> out;
  for (const CheckpointRecord& r : records) out.push_back(record_json(r));
  return out;
}

}  // namespace

CheckpointWriter::CheckpointWriter(std::string path, std::size_t total_cells,
                                   int flush_every,
                                   const std::vector<CheckpointRecord>& carried)
    : path_{std::move(path)},
      journal_{std::make_unique<JournalWriter>(
          path_, record_json(Header{.cells = total_cells}),
          records_json(carried), flush_every, flushes_counter(),
          &bytes_written_counter())} {}

CheckpointWriter::~CheckpointWriter() = default;

void CheckpointWriter::add(std::size_t cell, const ExperimentConfig& config,
                           const OverheadSeries& series) {
  {
    BNM_PROF_SCOPE("checkpoint.flush");
    journal_->append(
        cell_record_json(cell, cell_config_hash_hex(config), series));
  }
  cells_written_counter().add();
}

std::size_t CheckpointWriter::records() const { return journal_->records(); }

// ---------------------------------------------------------------------------
// Reader.

std::optional<CheckpointReader> CheckpointReader::load(const std::string& path,
                                                       std::string* error) {
  std::optional<Journal> journal = read_journal(path, error);
  if (!journal) return std::nullopt;
  Header header;
  if (!record_from_json(journal->header, &header) ||
      header.format != kCheckpointFormat ||
      header.version != kCheckpointVersion) {
    if (error) {
      *error = "header does not match format " + Header{}.format +
               " version " + std::to_string(kCheckpointVersion);
    }
    return std::nullopt;
  }
  CheckpointReader reader;
  reader.total_cells_ = header.cells;
  // A checksummed record that does not decode ends the intact prefix just
  // like a torn line does.
  for (const Value& r : journal->records) {
    CheckpointRecord record;
    if (!record_from_json(r, &record)) break;
    reader.records_[record.cell] = std::move(record);
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
    text += cell_record_json(i, cell_config_hash_hex(cells[i]), results[i]);
  }
  text += "]}\n";
  return text;
}

}  // namespace bnm::core

// Crash-safe matrix execution: checkpoint/resume for run_matrix_checked.
//
// A long matrix run (the paper's 88 cells x 50 reps; the ROADMAP's
// million-client campaigns) must survive being killed. The contract here:
//
//   * One record per completed cell, keyed by the cell's index and a stable
//     hash over every field of its config (cell_config_hash below). A
//     resumed run skips a cell only when both match, so editing the matrix
//     definition between runs silently re-runs what changed.
//   * Append-only journal (core/journal.h, docs/BENCH_SCHEMAS.md): line 1
//     is a header (format, version, cell count); each further line is one
//     record, a space, and the 16-hex FNV-1a of the record's bytes.
//     Opening the writer is the run's only whole-file write (header plus
//     carried-over records to `<path>.tmp`, rename(2)d over `<path>`; on
//     resume this compacts the file). After that each completed cell
//     renders and appends just its own record, so persistence costs the
//     same for the first cell and the last. With flush_every = 1 the record
//     is fflush()ed before add() returns, which is before the engine
//     announces the cell. A kill can tear only the last line; the reader
//     keeps every record before the first torn or checksum-failing line.
//   * Bit-identity: cell results are deterministic, and the JSON encoding
//     (obs/json.h, %.17g doubles) round-trips every finite double exactly,
//     so a killed-and-resumed run produces a final matrix report that is
//     byte-identical to an uninterrupted run's. tools/chaos_matrix and
//     scripts/check.sh gate this on every run.
//
// The reader is deliberately forgiving: a missing or unreadable checkpoint,
// one from another format version, or one whose header is torn degrades to
// "no records" (the run starts over) instead of failing — a half-written
// file must never wedge the campaign it was meant to protect.
#pragma once

#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/experiment.h"
#include "obs/json.h"

namespace bnm::core {

inline constexpr const char* kCheckpointFormat = "bnm-matrix-checkpoint";
inline constexpr int kCheckpointVersion = 2;

/// Stable 64-bit FNV-1a hash of every ExperimentConfig field, through the
/// testbed, TCP and fault-plan configs: the field-list walk of
/// core/config_hash.h, whose guard fails the build on an unlisted member.
/// Not hashed: capture_at_server (the server tap only observes), and the TCP
/// timestamp knobs while `timestamps` is off. custom_profile is hashed
/// shallowly (presence, label, capability flags) — byte-for-byte profile
/// identity is the caller's responsibility when overriding it.
std::uint64_t cell_config_hash(const ExperimentConfig& config);

/// Write `contents` to `path` via the atomic temp-file + rename(2) protocol
/// that reports and the journal's opening write use. Returns false (old
/// file intact) on I/O failure.
bool write_file_atomic(const std::string& path, const std::string& contents);

/// cell_config_hash as fixed-width lowercase hex (the on-disk key).
std::string cell_config_hash_hex(const ExperimentConfig& config);

/// Serialize one completed series (samples, accounting, labels — not the
/// config, which the resuming run supplies from its own matrix).
obs::json::Value series_to_json(const OverheadSeries& series);

/// Rebuild a series from its JSON form. nullopt on any shape mismatch.
/// The returned series has a default-constructed config.
std::optional<OverheadSeries> series_from_json(const obs::json::Value& v);

struct CheckpointRecord {
  std::size_t cell = 0;      ///< index into the matrix, in input order
  std::string config_hash;   ///< cell_config_hash_hex at completion time
  OverheadSeries series;
};

class JournalWriter;

/// Appends completed-cell records to the checkpoint journal.
/// Thread-safe: matrix pool workers call add() concurrently.
class CheckpointWriter {
 public:
  /// Open the journal at `path`: the header plus `carried` (records kept
  /// from a prior checkpoint on resume) replace the file atomically. Every
  /// `flush_every` appended records share one fflush (1 = each record is
  /// in the file before add() returns; the chaos-gate default).
  CheckpointWriter(std::string path, std::size_t total_cells,
                   int flush_every = 1,
                   const std::vector<CheckpointRecord>& carried = {});
  ~CheckpointWriter();  ///< flushes pending records

  /// Render and append one completed cell's record.
  void add(std::size_t cell, const ExperimentConfig& config,
           const OverheadSeries& series);

  const std::string& path() const { return path_; }
  std::size_t records() const;  ///< carried + added

 private:
  std::string path_;
  std::unique_ptr<JournalWriter> journal_;
};

/// Parsed checkpoint with hash-checked record lookup.
class CheckpointReader {
 public:
  /// Parse `path`. nullopt when the file is absent, its header is torn or
  /// names another format or version (detail in *error when given) —
  /// resuming from nothing is always safe. Records are the journal's intact
  /// prefix: a torn or corrupt line drops it and everything after it.
  static std::optional<CheckpointReader> load(const std::string& path,
                                              std::string* error = nullptr);

  std::size_t total_cells() const { return total_cells_; }
  std::size_t records() const { return records_.size(); }

  /// The stored series for `cell`, iff a record exists and its hash matches
  /// `config` (a mismatch means the matrix changed: re-run the cell).
  const OverheadSeries* lookup(std::size_t cell,
                               const ExperimentConfig& config) const;

 private:
  std::size_t total_cells_ = 0;
  std::map<std::size_t, CheckpointRecord> records_;
};

/// Canonical deterministic report over a full matrix run: one entry per
/// cell, in input order, using the same series encoding as the checkpoint.
/// Two runs of the same matrix — interrupted-and-resumed or not — must
/// produce byte-identical report strings (the chaos gate's contract).
std::string matrix_report_json(const std::vector<ExperimentConfig>& cells,
                               const std::vector<OverheadSeries>& results);

}  // namespace bnm::core

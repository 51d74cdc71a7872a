// Append-only checkpoint journal: the one persistence format behind the
// matrix checkpoint (core/checkpoint.h) and the campaign checkpoint
// (core/campaign.h). Internal header.
//
//   line 1    header object (format, version, run identity)
//   line 2..  one record object, a space, the 16-hex FNV-1a (core/fnv1a.h)
//             of the object's bytes, '\n'
//
// Opening a JournalWriter is a run's only whole-file write: the header and
// any carried-over records go to <path>.tmp, which is rename(2)d over
// <path>; on resume this is also the compaction step that drops a torn
// tail. Every later record is rendered alone and appended, so persisting a
// unit costs one record however many came before it. A kill can only tear
// the last line, and read_journal keeps every record before the first torn
// or checksum-failing line.
#pragma once

#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "obs/json.h"
#include "obs/metrics.h"

namespace bnm::core {

/// Thread-safe appender. The header and records are compact JSON object
/// text (no newline). `flushes` counts fflush calls that pushed pending
/// records to the file; `bytes` (optional) counts every byte written,
/// header and carried records included.
class JournalWriter {
 public:
  /// Throws std::runtime_error naming `path` when the journal cannot be
  /// written or opened: a run that asked for persistence never goes on
  /// without it.
  JournalWriter(const std::string& path, const std::string& header,
                const std::vector<std::string>& carried, int flush_every,
                const obs::Counter& flushes,
                const obs::Counter* bytes = nullptr);
  ~JournalWriter();  ///< flushes pending records, closes the file
  JournalWriter(const JournalWriter&) = delete;
  JournalWriter& operator=(const JournalWriter&) = delete;

  /// Append one record under the lock; fflush once `flush_every` records
  /// are pending (1 = the record is in the file when append returns).
  /// Throws std::runtime_error naming the path when the write or that
  /// fflush fails, and again on every later call.
  void append(std::string record);

  std::size_t records() const;  ///< carried + appended

 private:
  bool flush_locked();  ///< false when fflush fails

  mutable std::mutex mu_;
  std::string path_;
  std::string error_;  ///< the first failed append; non-empty = failed
  std::FILE* file_ = nullptr;
  int flush_every_;
  int pending_ = 0;
  std::size_t records_ = 0;
  obs::Counter flushes_;
  const obs::Counter* bytes_;
};

struct Journal {
  obs::json::Value header;
  std::vector<obs::json::Value> records;  ///< the intact prefix, in order
};

/// Read a journal. nullopt (reason in *error) when the file cannot be read
/// or its first line is not a JSON object; the caller checks the header.
std::optional<Journal> read_journal(const std::string& path,
                                    std::string* error = nullptr);

}  // namespace bnm::core

#include "core/journal.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "core/fnv1a.h"

namespace bnm::core {
namespace {

using obs::json::Value;

constexpr std::size_t kSumChars = 16;

std::string journal_line(std::string record) {
  const std::string sum = hex16(fnv1a(record));
  record += ' ';
  record += sum;
  record += '\n';
  return record;
}

/// The record object of one line (without its '\n'), or nullopt when the
/// line is torn, fails its checksum, or is not a JSON object.
std::optional<Value> parse_line(std::string_view line) {
  if (line.size() < kSumChars + 2 || line[line.size() - kSumChars - 1] != ' ') {
    return std::nullopt;
  }
  const std::string_view object = line.substr(0, line.size() - kSumChars - 1);
  if (line.substr(line.size() - kSumChars) != hex16(fnv1a(object))) {
    return std::nullopt;
  }
  std::optional<Value> v = obs::json::parse(object);
  if (!v || !v->is_object()) return std::nullopt;
  return v;
}

std::optional<std::string> read_file(const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (!f) return std::nullopt;
  std::string out;
  char buf[1 << 14];
  std::size_t n = 0;
  while ((n = std::fread(buf, 1, sizeof buf, f)) > 0) out.append(buf, n);
  const bool err = std::ferror(f) != 0;
  std::fclose(f);
  if (err) return std::nullopt;
  return out;
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path,
                             const std::string& header,
                             const std::vector<std::string>& carried,
                             int flush_every, const obs::Counter& flushes,
                             const obs::Counter* bytes)
    : flush_every_{std::max(flush_every, 1)}, flushes_{flushes}, bytes_{bytes} {
  std::string contents = header + '\n';
  for (const std::string& r : carried) contents += journal_line(r);
  if (!write_file_atomic(path, contents) ||
      !(file_ = std::fopen(path.c_str(), "ab"))) {
    throw std::runtime_error("cannot open checkpoint journal " + path);
  }
  records_ = carried.size();
  if (bytes_) bytes_->add(contents.size());
}

JournalWriter::~JournalWriter() {
  std::lock_guard<std::mutex> lock{mu_};
  flush_locked();
  std::fclose(file_);
}

void JournalWriter::append(std::string record) {
  const std::string line = journal_line(std::move(record));
  std::lock_guard<std::mutex> lock{mu_};
  if (std::fwrite(line.data(), 1, line.size(), file_) != line.size()) return;
  ++records_;
  if (bytes_) bytes_->add(line.size());
  if (++pending_ >= flush_every_) flush_locked();
}

void JournalWriter::flush_locked() {
  if (pending_ == 0) return;
  pending_ = 0;
  if (std::fflush(file_) == 0) flushes_.add();
}

std::size_t JournalWriter::records() const {
  std::lock_guard<std::mutex> lock{mu_};
  return records_;
}

std::optional<Journal> read_journal(const std::string& path,
                                    std::string* error) {
  const std::optional<std::string> text = read_file(path);
  if (!text) {
    if (error) *error = "cannot read " + path;
    return std::nullopt;
  }
  std::string_view rest{*text};
  const std::size_t eol = rest.find('\n');
  std::string parse_error;
  std::optional<Value> header =
      obs::json::parse(rest.substr(0, eol), &parse_error);
  if (!header || !header->is_object()) {
    if (error) *error = "header is not a JSON object: " + parse_error;
    return std::nullopt;
  }
  Journal journal{std::move(*header), {}};
  if (eol == std::string_view::npos) return journal;
  rest.remove_prefix(eol + 1);
  // Only '\n'-terminated lines are whole; the first line that is torn or
  // corrupt ends the journal, and everything after it is ignored.
  for (std::size_t end = rest.find('\n'); end != std::string_view::npos;
       end = rest.find('\n')) {
    std::optional<Value> record = parse_line(rest.substr(0, end));
    if (!record) break;
    journal.records.push_back(std::move(*record));
    rest.remove_prefix(end + 1);
  }
  return journal;
}

}  // namespace bnm::core

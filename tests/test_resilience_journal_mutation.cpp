// Seeded mutation test for the checkpoint journal reader and the two record
// decoders behind it: matrix series (CheckpointReader) and campaign shard
// aggregates (run_campaign's resume).
//
// Real journals (four paper cells, two of them under fault plans; a tiny
// lossy campaign) are damaged by a fixed-seed series of mutations: byte
// flips, truncations, swapped lines, duplicated lines, and value edits
// inside one record whose line checksum is recomputed, so that the decoder
// and not the checksum has to judge them. The properties:
//   * a load never crashes or hangs; it returns nothing or original
//     records, and after a flip or a truncation exactly the records before
//     the damaged line;
//   * every record that is accepted re-renders to exactly its own bytes.
// Edits only write spellings the renderer itself can produce (integers and
// doubles as obs::json writes them, escapes that escape_to emits), so an
// accepted edit has no excuse not to round-trip. The test prints its
// accept/reject split per mutation kind.
#include <gtest/gtest.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <iterator>
#include <optional>
#include <set>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "core/campaign.h"
#include "core/checkpoint.h"
#include "core/fnv1a.h"
#include "core/parallel_runner.h"
#include "net/fault.h"
#include "obs/json.h"
#include "sim/random.h"

namespace bnm::core {
namespace {

constexpr std::size_t kSumChars = 16;  // a line is "<json> <16 hex>\n"

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  return {std::istreambuf_iterator<char>{in}, {}};
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << bytes;
}

/// The journal's lines after the header, each without its '\n'; a torn
/// last line is kept.
std::vector<std::string> record_lines(const std::string& journal) {
  std::vector<std::string> out;
  std::size_t at = journal.find('\n');
  while (at != std::string::npos && at + 1 < journal.size()) {
    const std::size_t end = journal.find('\n', at + 1);
    out.push_back(journal.substr(at + 1, end == std::string::npos
                                             ? std::string::npos
                                             : end - at - 1));
    at = end;
  }
  return out;
}

/// The record JSON of a line, or "" when the line is too short to hold one.
std::string record_part(const std::string& line) {
  return line.size() > kSumChars + 1
             ? line.substr(0, line.size() - kSumChars - 1)
             : std::string{};
}

std::set<std::string> record_parts(const std::string& journal) {
  std::set<std::string> out;
  for (const std::string& line : record_lines(journal)) {
    out.insert(record_part(line));
  }
  return out;
}

/// [begin, end) of every string and number token in a JSON text.
std::vector<std::pair<std::size_t, std::size_t>> tokens(std::string_view j) {
  std::vector<std::pair<std::size_t, std::size_t>> out;
  for (std::size_t i = 0; i < j.size();) {
    const std::size_t begin = i;
    if (j[i] == '"') {
      for (++i; i < j.size() && j[i] != '"'; ++i) {
        if (j[i] == '\\') ++i;
      }
      out.emplace_back(begin, ++i);
    } else if (j[i] == '-' || (j[i] >= '0' && j[i] <= '9')) {
      while (i < j.size() && std::string_view{"0123456789.eE+-"}.find(j[i]) !=
                                 std::string_view::npos) {
        ++i;
      }
      out.emplace_back(begin, i);
    } else {
      ++i;
    }
  }
  return out;
}

/// Replacement tokens, each spelled as the renderer would write it for some
/// member type: integers that do and do not fit an int, a uint64 or a
/// size_t, doubles, other JSON kinds, and strings with escapes.
std::vector<std::string> edit_values() {
  std::vector<std::string> out = {
      "0", "1", "-1", "7", "2147483647", "2147483648", "-2147483649",
      "4294967297", "4294967298", "4294967808", "9007199254740992", "0.5",
      "-3.25", "true", "null", "[]", "{}", "\"x\"", "\"\"", "\"a b\"",
      "\"q\\\"q\"", "\"line\\nbreak\""};
  std::string big;
  obs::json::number_to(big, 1e300);
  out.push_back(big);
  return out;
}

enum Kind { kFlip, kTruncate, kSwap, kDuplicate, kEdit, kKinds };
constexpr std::array<const char*, kKinds> kKindNames = {
    "flip", "truncate", "swap", "duplicate", "edit"};

struct Mutation {
  Kind kind = kFlip;
  std::string bytes;
  /// For flips and truncations: the index of the first damaged record, or
  /// npos when the header line is hit.
  std::size_t damaged = std::string::npos;
};

Mutation mutate(const std::string& journal, sim::Rng& rng) {
  static const std::vector<std::string> values = edit_values();
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  const std::size_t header_end = journal.find('\n');
  const auto damaged_record = [&](std::size_t at) {
    if (at <= header_end) return std::string::npos;
    std::size_t r = 0;
    for (std::size_t i = header_end + 1; i < at; ++i) r += journal[i] == '\n';
    return r;
  };
  Mutation m;
  m.kind = static_cast<Kind>(pick(kKinds));
  m.bytes = journal;
  std::vector<std::string> lines = record_lines(journal);
  const std::string header = journal.substr(0, header_end + 1);
  const auto join = [&header](const std::vector<std::string>& ls) {
    std::string out = header;
    for (const std::string& l : ls) out += l + '\n';
    return out;
  };
  switch (m.kind) {
    case kFlip: {
      const std::size_t at = pick(journal.size());
      m.bytes[at] = static_cast<char>(m.bytes[at] ^ (1 + pick(255)));
      m.damaged = damaged_record(at);
      break;
    }
    case kTruncate: {
      const std::size_t at = pick(journal.size());
      m.bytes.resize(at);
      m.damaged = damaged_record(at);
      break;
    }
    case kSwap: {
      std::swap(lines[pick(lines.size())], lines[pick(lines.size())]);
      m.bytes = join(lines);
      break;
    }
    case kDuplicate: {
      const std::string copy = lines[pick(lines.size())];
      lines.insert(lines.begin() + static_cast<std::ptrdiff_t>(
                                       pick(lines.size() + 1)),
                   copy);
      m.bytes = join(lines);
      break;
    }
    default: {
      std::string& line = lines[pick(lines.size())];
      std::string record = record_part(line);
      const auto toks = tokens(record);
      const auto [begin, end] = toks[pick(toks.size())];
      record.replace(begin, end - begin, values[pick(values.size())]);
      line = record + ' ' + hex16(fnv1a(record));
      m.bytes = join(lines);
      break;
    }
  }
  return m;
}

/// Loads per mutation kind that returned no record, some, or all of them.
struct Split {
  std::array<std::array<int, 3>, kKinds> loads{};
  void count(Kind kind, std::size_t got, std::size_t all) {
    ++loads[kind][got == 0 ? 0 : got < all ? 1 : 2];
  }
  void print(const char* journal) const {
    for (std::size_t k = 0; k < kKinds; ++k) {
      std::printf("%s %-9s none %3d  partial %3d  all %3d\n", journal,
                  kKindNames[k], loads[k][0], loads[k][1], loads[k][2]);
    }
  }
};

/// Four paper cells. Cells 1 and 3 lose every packet to the server: cell 1
/// hits its sample deadline, cell 3's HTTP request timeout fails it first.
std::vector<ExperimentConfig> paper_cells() {
  using B = browser::BrowserId;
  using K = methods::ProbeKind;
  const std::array<std::pair<B, K>, 4> protos = {{{B::kChrome, K::kXhrGet},
                                                  {B::kFirefox, K::kDom},
                                                  {B::kChrome, K::kWebSocket},
                                                  {B::kOpera, K::kXhrPost}}};
  std::vector<ExperimentConfig> cells;
  for (std::size_t i = 0; i < protos.size(); ++i) {
    ExperimentConfig cfg;
    cfg.browser = protos[i].first;
    cfg.os = browser::OsId::kUbuntu;
    cfg.kind = protos[i].second;
    cfg.runs = 4;
    if (i % 2 == 1) {
      net::FaultPlan cut;
      cut.loss_probability = 1.0;
      cfg.testbed.faults_to_server = cut;
      cfg.sample_deadline = sim::Duration::seconds(2);
    }
    if (i == 3) cfg.http_request_timeout = sim::Duration::millis(500);
    cells.push_back(cfg);
  }
  return cells;
}

TEST(JournalMutation, MatrixReaderKeepsOriginalsAndRoundTripsWhatItAccepts) {
  const std::string ck = "bnm_journal_mutation_matrix.json";
  std::remove(ck.c_str());
  const std::vector<ExperimentConfig> cells = paper_cells();
  MatrixOptions options;
  options.jobs = 1;  // records land in cell order
  options.checkpoint.path = ck;
  const MatrixResult clean = run_matrix_checked(cells, options);
  ASSERT_TRUE(clean.ok());
  const std::string journal = slurp(ck);
  const std::vector<std::string> originals = record_lines(journal);
  ASSERT_EQ(originals.size(), cells.size());
  int faulted = 0;
  for (const OverheadSeries& s : clean.series) {
    faulted += s.accounting.total() +
               static_cast<int>(s.accounting.http_timeouts);
  }
  ASSERT_GT(faulted, 0) << "the fault plans left no trace in the records";

  sim::Rng rng{20261020};
  Split split;
  for (int i = 0; i < 600; ++i) {
    const Mutation m = mutate(journal, rng);
    SCOPED_TRACE(std::string{kKindNames[m.kind]} + " mutation " +
                 std::to_string(i));
    spit(ck, m.bytes);
    const std::optional<CheckpointReader> reader = CheckpointReader::load(ck);
    const std::set<std::string> present = record_parts(m.bytes);
    std::size_t found = 0, leading = 0;
    for (std::size_t c = 0; reader && c < cells.size(); ++c) {
      const OverheadSeries* s = reader->lookup(c, cells[c]);
      if (s == nullptr) continue;
      const std::string rendered =
          "{\"cell\":" + std::to_string(c) + ",\"config_hash\":\"" +
          cell_config_hash_hex(cells[c]) + "\",\"series\":" +
          series_to_json(*s).dump() + "}";
      EXPECT_TRUE(present.count(rendered)) << rendered;
      if (m.kind != kEdit) {
        EXPECT_EQ(rendered, record_part(originals[c])) << "cell " << c;
      }
      leading += found++ == c;
    }
    if ((m.kind == kFlip || m.kind == kTruncate) &&
        m.damaged != std::string::npos) {
      EXPECT_EQ(found, m.damaged);
      EXPECT_EQ(leading, found) << "not a prefix";
    }
    split.count(m.kind, found, cells.size());
  }
  split.print("matrix");
  std::remove(ck.c_str());
}

TEST(JournalMutation, CampaignResumeKeepsOriginalsAndRoundTripsWhatItAccepts) {
  const std::string ck = "bnm_journal_mutation_campaign.json";
  std::remove(ck.c_str());
  CampaignSpec spec;
  spec.seed = 2024;
  spec.clients = 4;
  spec.shards = 4;
  spec.runs_per_client = 1;
  spec.lossy_fraction = 1.0;
  spec.loss_probability = 0.3;
  CampaignOptions options;
  options.jobs = 1;  // records land in shard order
  options.checkpoint = ck;
  const std::string clean_report =
      campaign_report_json(spec, run_campaign(spec, options));
  const std::string journal = slurp(ck);
  const std::size_t shards = record_lines(journal).size();
  ASSERT_EQ(shards, 4u);

  options.resume = true;
  sim::Rng rng{20261021};
  Split split;
  for (int i = 0; i < 150; ++i) {
    const Mutation m = mutate(journal, rng);
    SCOPED_TRACE(std::string{kKindNames[m.kind]} + " mutation " +
                 std::to_string(i));
    spit(ck, m.bytes);
    const CampaignResult resumed = run_campaign(spec, options);
    // The resume rewrote the journal: its carried records, re-rendered from
    // what was decoded, come first and must each be a line it was given.
    const std::vector<std::string> rewritten = record_lines(slurp(ck));
    ASSERT_EQ(rewritten.size(), shards);
    const std::set<std::string> present = record_parts(m.bytes);
    for (std::size_t r = 0; r < resumed.shards_resumed; ++r) {
      EXPECT_TRUE(present.count(record_part(rewritten[r]))) << rewritten[r];
    }
    if (m.kind != kEdit) {
      EXPECT_EQ(campaign_report_json(spec, resumed), clean_report);
    }
    if ((m.kind == kFlip || m.kind == kTruncate) &&
        m.damaged != std::string::npos) {
      EXPECT_EQ(resumed.shards_resumed, m.damaged);
    }
    split.count(m.kind, resumed.shards_resumed, shards);
  }
  split.print("campaign");
  std::remove(ck.c_str());
}

}  // namespace
}  // namespace bnm::core

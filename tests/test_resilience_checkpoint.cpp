// Checkpoint/resume contract: stable config hashing, exact series
// round-trips (including awkward doubles), golden journal bytes, resume
// bit-identity, graceful degradation on torn, corrupt or version-1
// checkpoints, and cells persisted before they are announced. Plus the
// FaultPlan construction-time validation that protects the same campaigns.
#include <gtest/gtest.h>

#include <sys/resource.h>

#include <cmath>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <mutex>
#include <sstream>
#include <stdexcept>
#include <string>
#include <tuple>
#include <vector>

#include "config_walk.h"
#include "core/campaign.h"
#include "core/checkpoint.h"
#include "core/config_hash.h"
#include "core/experiment.h"
#include "core/fnv1a.h"
#include "browser/profile.h"
#include "core/parallel_runner.h"
#include "net/fault.h"
#include "sim/simulation.h"

namespace bnm::core {
namespace {

/// Unique-ish temp path under the build tree; removed on destruction.
class TempFile {
 public:
  explicit TempFile(const std::string& tag) {
    static int counter = 0;
    path_ = "bnm_ckpt_test_" + tag + "_" + std::to_string(counter++) +
            ".json";
    std::remove(path_.c_str());
  }
  ~TempFile() {
    std::remove(path_.c_str());
    std::remove((path_ + ".tmp").c_str());
  }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

ExperimentConfig demo_config() {
  ExperimentConfig cfg;
  cfg.browser = browser::BrowserId::kChrome;
  cfg.os = browser::OsId::kUbuntu;
  cfg.kind = methods::ProbeKind::kXhrGet;
  cfg.runs = 2;
  return cfg;
}

TEST(ConfigHash, StableAcrossCallsAndCopies) {
  const ExperimentConfig a = demo_config();
  ExperimentConfig b = a;
  EXPECT_EQ(cell_config_hash(a), cell_config_hash(b));
  EXPECT_EQ(cell_config_hash_hex(a), cell_config_hash_hex(b));
  EXPECT_EQ(cell_config_hash_hex(a).size(), 16u);
}

TEST(ConfigHash, SensitiveToEveryBehaviourKnob) {
  using config_walk::Members;
  using config_walk::perturbed;
  // Every optional engaged, every vector non-empty, every gate on: then each
  // hashed leaf, perturbed alone, must move the hash, and each unhashed
  // member (Testbed::Config::capture_at_server) must not.
  ExperimentConfig full = demo_config();
  config_walk::fill(full);
  const std::uint64_t full_hash = cell_config_hash(full);
  const std::size_t leaves = config_walk::count<Members::kHashed>(full);
  EXPECT_GT(leaves, 60u);
  for (std::size_t i = 0; i < leaves; ++i) {
    EXPECT_NE(cell_config_hash(perturbed<Members::kHashed>(full, i)),
              full_hash)
        << "hashed leaf " << i;
  }
  const std::size_t unhashed = config_walk::count<Members::kUnhashed>(full);
  EXPECT_EQ(unhashed, 1u);
  for (std::size_t i = 0; i < unhashed; ++i) {
    EXPECT_EQ(cell_config_hash(perturbed<Members::kUnhashed>(full, i)),
              full_hash)
        << "unhashed member " << i;
  }

  const ExperimentConfig base = demo_config();
  const std::uint64_t h0 = cell_config_hash(base);

  // Fault plans are part of the hash: adding, then tweaking, then removing
  // one all change it.
  ExperimentConfig c = base;
  net::FaultPlan plan;
  plan.loss_probability = 0.1;
  c.testbed.faults_to_server = plan;
  const std::uint64_t with_faults = cell_config_hash(c);
  EXPECT_NE(with_faults, h0);
  c.testbed.faults_to_server->loss_probability = 0.2;
  EXPECT_NE(cell_config_hash(c), with_faults);
  c.testbed.faults_to_server->drop_nth_data_segment(3);
  const std::uint64_t with_drop = cell_config_hash(c);
  EXPECT_NE(with_drop, with_faults);
  c.testbed.faults_to_server.reset();
  EXPECT_EQ(cell_config_hash(c), h0);

  // RFC 7323 timestamps: turning them on moves the hash, and so does each
  // clock knob while they are on. While off, the knobs do not matter, so
  // every timestamps-off hash stays what it was before they were hashed.
  c = base;
  c.testbed.tcp.timestamps = true;
  const std::uint64_t with_ts = cell_config_hash(c);
  EXPECT_NE(with_ts, h0);
  c.testbed.tcp.ts_granule = sim::Duration::millis(10);
  EXPECT_NE(cell_config_hash(c), with_ts);
  c.testbed.tcp.ts_granule = base.testbed.tcp.ts_granule;
  c.testbed.tcp.ts_offset = 0xfffffff0u;
  EXPECT_NE(cell_config_hash(c), with_ts);
  c.testbed.tcp.timestamps = false;
  EXPECT_EQ(cell_config_hash(c), h0);
  c.testbed.tcp.ts_granule = sim::Duration::millis(10);
  EXPECT_EQ(cell_config_hash(c), h0);
}

// Pinned hashes of configs that reach every corner of the config walk:
// both fault directions with bursty loss, windows and drop-Nth; RFC 7323
// timestamps on; a custom profile. Resume keys on disk depend on these.
ExperimentConfig faulted_both_ways_config() {
  ExperimentConfig cfg = demo_config();
  net::FaultPlan to;
  to.name = "to-server";
  to.loss_probability = 0.02;
  to.bursty_loss = net::GilbertElliottConfig{0.01, 0.3, 0.001, 0.5};
  to.corrupt_probability = 0.003;
  to.duplicate_probability = 0.004;
  to.blackhole(sim::TimePoint::from_ns(1'000'000),
               sim::TimePoint::from_ns(2'000'000));
  to.flap(sim::TimePoint::from_ns(5'000'000), sim::Duration::millis(1),
          sim::Duration::millis(10), 2);
  to.drop_nth_data_segment(3).drop_nth_data_segment(7);
  to.max_events = 512;
  net::FaultPlan from;
  from.name = "from-server";
  from.loss_probability = 0.05;
  from.blackhole(sim::TimePoint::from_ns(3'000'000),
                 sim::TimePoint::from_ns(4'000'000));
  cfg.testbed.faults_to_server = to;
  cfg.testbed.faults_from_server = from;
  return cfg;
}

ExperimentConfig timestamps_on_config() {
  ExperimentConfig cfg = demo_config();
  cfg.testbed.tcp.timestamps = true;
  cfg.testbed.tcp.ts_granule = sim::Duration::millis(4);
  cfg.testbed.tcp.ts_offset = 0xfffffff0u;
  return cfg;
}

ExperimentConfig custom_profile_config() {
  ExperimentConfig cfg = demo_config();
  cfg.custom_profile =
      browser::make_mobile_profile(browser::MobilePlatform::kAndroidChrome);
  return cfg;
}

TEST(ConfigHash, GoldenValues) {
  EXPECT_EQ(cell_config_hash_hex(faulted_both_ways_config()),
            "80a18b45a5ca1c6f");
  EXPECT_EQ(cell_config_hash_hex(timestamps_on_config()), "6f2ce64d01f6d1fd");
  EXPECT_EQ(cell_config_hash_hex(custom_profile_config()),
            "b18e7824ef27b075");
}

// The guard behind every field list: the consteval arity probe counts
// members of every kind a config holds, and a list that leaves one out is
// caught (config_hash.h turns this inequality into a build failure).
struct ProbeInner {
  int a = 0;
  double b = 0;
};
struct ProbeOuter {
  std::string s;
  std::optional<ProbeInner> o;
  std::vector<ProbeInner> v;
  ProbeInner nested;
  sim::Duration d;
  sim::TimePoint t;
  bool flag = false;
};
struct ProbeUnlisted {
  int listed = 0;
  int forgotten = 0;
  template <class S>
  static auto fields(S& s) {
    return std::tie(s.listed);
  }
};
static_assert(aggregate_arity<ProbeInner>() == 2);
static_assert(aggregate_arity<ProbeOuter>() == 7);
static_assert(aggregate_arity<ProbeUnlisted>() == 2);
static_assert(listed_members<ProbeUnlisted>() == 1);
static_assert(aggregate_arity<ExperimentConfig>() ==
              listed_members<ExperimentConfig>());
static_assert(aggregate_arity<Testbed::Config>() ==
              listed_members<Testbed::Config>());

// Testbed::Config::capture_at_server is left out of the config hash because
// the server tap only observes. Prove it: the matrix report is
// byte-identical with the tap on and off, for XHR, Flash and Java cells.
TEST(CaptureAtServer, MatrixReportUnchanged) {
  std::vector<ExperimentConfig> cells;
  for (const auto& [browser, os, kind] :
       {std::tuple{browser::BrowserId::kChrome, browser::OsId::kWindows7,
                   methods::ProbeKind::kXhrGet},
        std::tuple{browser::BrowserId::kFirefox, browser::OsId::kUbuntu,
                   methods::ProbeKind::kFlashSocket},
        std::tuple{browser::BrowserId::kIe, browser::OsId::kWindows7,
                   methods::ProbeKind::kJavaGet},
        std::tuple{browser::BrowserId::kOpera, browser::OsId::kWindows7,
                   methods::ProbeKind::kFlashGet}}) {
    ExperimentConfig cfg;
    cfg.browser = browser;
    cfg.os = os;
    cfg.kind = kind;
    cfg.runs = 6;
    cells.push_back(cfg);
  }
  const std::string off = matrix_report_json(cells, run_matrix(cells, 2));
  for (ExperimentConfig& cfg : cells) cfg.testbed.capture_at_server = true;
  const std::string on = matrix_report_json(cells, run_matrix(cells, 2));
  EXPECT_EQ(on, off);
}

// A journal append that cannot reach the file must fail the unit, not pass
// as persisted. The child process lowers its own file-size limit so each
// journal's header fits and its first record does not; SIGXFSZ is ignored
// so the write returns EFBIG instead of killing the child. The limit also
// caps the child's captured stderr, so it is lifted before the report.
TEST(JournalAppendFailure, QuarantinesCellAndFailsShard) {
  ::testing::FLAGS_gtest_death_test_style = "threadsafe";
  const auto child = [] {
    rlimit limit{};
    if (getrlimit(RLIMIT_FSIZE, &limit) != 0) std::exit(3);
    const rlim_t soft = limit.rlim_cur;
    limit.rlim_cur = 200;
    if (std::signal(SIGXFSZ, SIG_IGN) == SIG_ERR ||
        setrlimit(RLIMIT_FSIZE, &limit) != 0) {
      std::exit(3);
    }
    const std::string report = [] {
      TempFile matrix_ck{"fsize"};
      MatrixOptions options;
      options.jobs = 1;
      options.checkpoint.path = matrix_ck.path();
      const MatrixResult matrix =
          run_matrix_checked({demo_config(), demo_config()}, options);

      TempFile campaign_ck{"fsize_campaign"};
      CampaignSpec spec;
      spec.clients = 4;
      spec.shards = 2;
      spec.runs_per_client = 1;
      CampaignOptions campaign;
      campaign.jobs = 1;
      campaign.checkpoint = campaign_ck.path();
      std::string campaign_error = "completed";
      try {
        run_campaign(spec, campaign);
      } catch (const std::runtime_error& e) {
        campaign_error = e.what();
      }
      return "matrix: " + std::to_string(matrix.quarantined.size()) +
             " quarantined: " + matrix.series[0].first_error +
             " | campaign: " + campaign_error;
    }();
    limit.rlim_cur = soft;
    if (setrlimit(RLIMIT_FSIZE, &limit) != 0) std::exit(3);
    std::fprintf(stderr, "%s\n", report.c_str());
    std::exit(0);
  };
  EXPECT_EXIT(child(), ::testing::ExitedWithCode(0),
              "matrix: 2 quarantined: uncaught exception: cannot append to "
              "checkpoint journal bnm_ckpt_test_fsize_[0-9]+\\.json: File "
              "too large \\| campaign: campaign shard 0 failed: cannot "
              "append to checkpoint journal "
              "bnm_ckpt_test_fsize_campaign_[0-9]+\\.json: File too large");
}

TEST(SeriesJson, RoundTripsAwkwardDoublesExactly) {
  OverheadSeries s;
  s.case_label = "C (U)";
  s.method_name = "XHR GET";
  s.failures = 1;
  s.first_error = "sample deadline exceeded";
  s.accounting.timeouts = 1;
  s.accounting.http_retries = 7;
  OverheadSample a;
  a.d1_ms = 0.1;  // not exactly representable
  a.d2_ms = -0.0;  // sign of zero must survive
  a.browser_rtt1_ms = 101.30000000000001;
  a.browser_rtt2_ms = 1e-17;
  a.net_rtt1_ms = 12345678.000000001;
  a.net_rtt2_ms = -3.5;
  a.connections_opened1 = 1;
  s.samples.push_back(a);
  OverheadSample b;
  b.d1_ms = 3.0;  // integral-valued double: dumps as "3", reparses as int
  s.samples.push_back(b);

  const std::string dumped = series_to_json(s).dump();
  std::optional<obs::json::Value> parsed = obs::json::parse(dumped);
  ASSERT_TRUE(parsed.has_value());
  std::optional<OverheadSeries> back = series_from_json(*parsed);
  ASSERT_TRUE(back.has_value());

  EXPECT_EQ(back->case_label, s.case_label);
  EXPECT_EQ(back->method_name, s.method_name);
  EXPECT_EQ(back->failures, s.failures);
  EXPECT_EQ(back->first_error, s.first_error);
  EXPECT_EQ(back->accounting.timeouts, 1);
  EXPECT_EQ(back->accounting.http_retries, 7u);
  ASSERT_EQ(back->samples.size(), 2u);
  // Bitwise round trip, including -0.0 (signbit, not just ==).
  EXPECT_EQ(back->samples[0].d1_ms, 0.1);
  EXPECT_TRUE(std::signbit(back->samples[0].d2_ms));
  EXPECT_EQ(back->samples[0].browser_rtt1_ms, 101.30000000000001);
  EXPECT_EQ(back->samples[0].browser_rtt2_ms, 1e-17);
  EXPECT_EQ(back->samples[0].net_rtt1_ms, 12345678.000000001);
  EXPECT_EQ(back->samples[0].net_rtt2_ms, -3.5);
  EXPECT_EQ(back->samples[0].connections_opened1, 1);
  EXPECT_EQ(back->samples[1].d1_ms, 3.0);

  // Re-serializing the parsed series yields the same bytes — the property
  // the resume bit-identity gate rests on.
  EXPECT_EQ(series_to_json(*back).dump(), dumped);
}

TEST(CheckpointFile, GoldenBytes) {
  TempFile tmp{"golden"};
  OverheadSeries s;
  s.case_label = "C (U)";
  s.method_name = "XHR GET";
  OverheadSample a;
  a.d1_ms = 1.5;
  a.net_rtt1_ms = 100.25;
  a.connections_opened1 = 1;
  s.samples.push_back(a);

  const ExperimentConfig cfg = demo_config();
  EXPECT_EQ(cell_config_hash_hex(cfg), "5edc60e7758ddaa9");
  CheckpointWriter writer{tmp.path(), 3};
  writer.add(1, cfg, s);

  // Journal v2: a header line, then one record line carrying the FNV-1a of
  // its JSON bytes. The record is in the file as soon as add() returns.
  const std::string expected =
      "{\"format\":\"bnm-matrix-checkpoint\",\"version\":2,\"cells\":3}\n"
      "{\"cell\":1,\"config_hash\":\"5edc60e7758ddaa9\","
      "\"series\":{\"case_label\":\"C (U)\",\"method_name\":\"XHR GET\","
      "\"failures\":0,\"first_error\":\"\",\"accounting\":{\"timeouts\":0,"
      "\"transport_errors\":0,\"degraded\":0,\"http_retries\":0,"
      "\"http_timeouts\":0},\"samples\":[[1.5,0,0,0,100.25,0,1,0]]}} "
      "5dbd08c4e7393631\n";
  EXPECT_EQ(slurp(tmp.path()), expected);

  // And the reader accepts its own golden bytes.
  std::optional<CheckpointReader> reader = CheckpointReader::load(tmp.path());
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->total_cells(), 3u);
  EXPECT_EQ(reader->records(), 1u);
  const OverheadSeries* stored = reader->lookup(1, cfg);
  ASSERT_NE(stored, nullptr);
  EXPECT_EQ(stored->samples.size(), 1u);
  EXPECT_EQ(stored->samples[0].d1_ms, 1.5);
}

TEST(CheckpointFile, ResumeIsBitIdenticalToCleanRun) {
  auto cells = std::vector<ExperimentConfig>{};
  for (int i = 0; i < 4; ++i) {
    ExperimentConfig cfg = demo_config();
    cfg.seed = 42 + static_cast<std::uint64_t>(i);
    cells.push_back(cfg);
  }

  // Clean run (checkpointing on, as the chaos gate runs it).
  TempFile clean_ck{"clean"};
  MatrixOptions clean_opts;
  clean_opts.jobs = 2;
  clean_opts.checkpoint.path = clean_ck.path();
  const MatrixResult clean = run_matrix_checked(cells, clean_opts);
  ASSERT_TRUE(clean.ok());

  // Interrupted run: only cells 0 and 2 made it into the checkpoint.
  TempFile partial_ck{"partial"};
  {
    CheckpointWriter writer{partial_ck.path(), cells.size()};
    writer.add(0, cells[0], clean.series[0]);
    writer.add(2, cells[2], clean.series[2]);
  }

  // Resume: 0 and 2 restored, 1 and 3 executed fresh.
  MatrixOptions resume_opts;
  resume_opts.jobs = 2;
  resume_opts.checkpoint.path = partial_ck.path();
  resume_opts.checkpoint.resume = true;
  const MatrixResult resumed = run_matrix_checked(cells, resume_opts);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.cells_resumed, 2u);
  EXPECT_EQ(resumed.cells_run, 2u);

  // The canonical report — what downstream analysis consumes — is byte-
  // identical between the uninterrupted and the killed-and-resumed run.
  EXPECT_EQ(matrix_report_json(cells, resumed.series),
            matrix_report_json(cells, clean.series));

  // The recompacted journal also carries all four cells now.
  std::optional<CheckpointReader> reader =
      CheckpointReader::load(partial_ck.path());
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->records(), 4u);
}

TEST(CheckpointFile, HashMismatchRerunsTheCell) {
  auto cells = std::vector<ExperimentConfig>{demo_config()};
  const OverheadSeries real = run_experiment(cells[0]);

  TempFile ck{"mismatch"};
  {
    // Store the record under a *different* config (other seed): the stored
    // hash will not match, so resume must re-run the cell.
    ExperimentConfig other = cells[0];
    other.seed = 777;
    CheckpointWriter writer{ck.path(), 1};
    OverheadSeries bogus = real;
    bogus.case_label = "STALE";
    writer.add(0, other, bogus);
  }

  MatrixOptions options;
  options.jobs = 1;
  options.checkpoint.path = ck.path();
  options.checkpoint.resume = true;
  const MatrixResult result = run_matrix_checked(cells, options);
  EXPECT_EQ(result.cells_resumed, 0u);
  EXPECT_EQ(result.cells_run, 1u);
  EXPECT_EQ(result.series[0].case_label, real.case_label);  // not "STALE"
}

TEST(CheckpointFile, CorruptOrMissingCheckpointDegradesToFreshRun) {
  std::string error;
  EXPECT_FALSE(
      CheckpointReader::load("definitely_missing_ckpt.json", &error));
  EXPECT_FALSE(error.empty());

  TempFile ck{"corrupt"};
  {
    std::ofstream out{ck.path(), std::ios::binary};
    out << "{\"format\":\"bnm-matrix-checkpoint\",\"version\":1,\"cel";  // torn
  }
  error.clear();
  EXPECT_FALSE(CheckpointReader::load(ck.path(), &error));
  EXPECT_FALSE(error.empty());

  // The engine shrugs and runs everything.
  auto cells = std::vector<ExperimentConfig>{demo_config()};
  MatrixOptions options;
  options.jobs = 1;
  options.checkpoint.path = ck.path();
  options.checkpoint.resume = true;
  const MatrixResult result = run_matrix_checked(cells, options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.cells_resumed, 0u);
  EXPECT_EQ(result.cells_run, 1u);

  // A wrong-format file (valid JSON, not a checkpoint) is rejected too.
  {
    std::ofstream out{ck.path(), std::ios::binary};
    out << "{\"format\":\"something-else\",\"version\":1,\"cells\":0,"
           "\"records\":[]}\n";
  }
  error.clear();
  EXPECT_FALSE(CheckpointReader::load(ck.path(), &error));
  EXPECT_NE(error.find("format"), std::string::npos);
}

std::vector<ExperimentConfig> seeded_cells(int n) {
  std::vector<ExperimentConfig> cells;
  for (int i = 0; i < n; ++i) {
    ExperimentConfig cfg = demo_config();
    cfg.seed = 42 + static_cast<std::uint64_t>(i);
    cells.push_back(cfg);
  }
  return cells;
}

void spit(const std::string& path, const std::string& bytes) {
  std::ofstream out{path, std::ios::binary | std::ios::trunc};
  out << bytes;
}

/// `text` with its first `from` replaced by `to` (which must be there).
std::string replaced(std::string text, const std::string& from,
                     const std::string& to) {
  const std::size_t at = text.find(from);
  EXPECT_NE(at, std::string::npos) << from;
  if (at != std::string::npos) text.replace(at, from.size(), to);
  return text;
}

TEST(SeriesJson, RejectsIntegersThatDoNotFitTheirMember) {
  OverheadSeries s;
  s.case_label = "C (U)";
  s.samples.resize(1);
  s.samples[0].connections_opened1 = 2;
  const std::string dumped = series_to_json(s).dump();
  const auto decodes = [](const std::string& text) {
    const std::optional<obs::json::Value> v = obs::json::parse(text);
    return v.has_value() && series_from_json(*v).has_value();
  };
  ASSERT_TRUE(decodes(dumped));
  // 2^32 + 1 would narrow to 1 in an int, 2^32 + 2 to 2, and -1 would wrap
  // to 2^64 - 1 in a uint64_t: each is rejected, not silently changed.
  EXPECT_FALSE(decodes(
      replaced(dumped, "\"failures\":0", "\"failures\":4294967297")));
  EXPECT_FALSE(decodes(replaced(dumped, ",2,0]]", ",4294967298,0]]")));
  EXPECT_FALSE(decodes(
      replaced(dumped, "\"http_retries\":0", "\"http_retries\":-1")));
  EXPECT_TRUE(decodes(
      replaced(dumped, "\"failures\":0", "\"failures\":2147483647")));
}

TEST(SeriesJson, ControlCharactersRenderAsSpaces) {
  // The parser decodes \u escapes lossily, so a control character could not
  // round-trip: it renders as a space, and a record holding one is refused.
  OverheadSeries s;
  s.first_error = "reset\tby \"peer\"\n\\";
  const std::string dumped = series_to_json(s).dump();
  EXPECT_NE(dumped.find("\"first_error\":\"reset by \\\"peer\\\" \\\\\""),
            std::string::npos)
      << dumped;
  const std::optional<obs::json::Value> v = obs::json::parse(
      replaced(dumped, "reset by", "reset\\nby"));
  ASSERT_TRUE(v.has_value());
  EXPECT_FALSE(series_from_json(*v).has_value());
}

TEST(CheckpointJournal, OutOfRangeRecordEndsTheIntactPrefix) {
  const std::vector<ExperimentConfig> cells = seeded_cells(3);
  OverheadSeries s;
  s.case_label = "C (U)";
  TempFile ck{"range"};
  {
    CheckpointWriter writer{ck.path(), cells.size()};
    for (std::size_t i = 0; i < cells.size(); ++i) writer.add(i, cells[i], s);
  }
  // Edit the second record and give its line a valid checksum, so the
  // decoder, not the checksum, has to catch it.
  std::string text = slurp(ck.path());
  const std::size_t begin = text.find('\n', text.find('\n') + 1) + 1;
  const std::size_t end = text.find('\n', begin);
  const std::string record = replaced(
      text.substr(begin, end - begin - 17), "\"failures\":0",
      "\"failures\":4294967297");
  text.replace(begin, end - begin, record + ' ' + hex16(fnv1a(record)));
  spit(ck.path(), text);

  std::optional<CheckpointReader> reader = CheckpointReader::load(ck.path());
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->records(), 1u);
  EXPECT_NE(reader->lookup(0, cells[0]), nullptr);
  EXPECT_EQ(reader->lookup(1, cells[1]), nullptr);
  EXPECT_EQ(reader->lookup(2, cells[2]), nullptr);
}

TEST(CheckpointJournal, TornTailKeepsEveryEarlierRecord) {
  const std::vector<ExperimentConfig> cells = seeded_cells(3);
  OverheadSeries s;
  s.case_label = "C (U)";
  s.samples.resize(2);
  TempFile ck{"torn"};
  {
    CheckpointWriter writer{ck.path(), cells.size()};
    for (std::size_t i = 0; i < cells.size(); ++i) writer.add(i, cells[i], s);
  }
  const std::string whole = slurp(ck.path());
  ASSERT_EQ(whole.back(), '\n');
  const std::size_t last = whole.rfind('\n', whole.size() - 2) + 1;

  // A kill can stop the append anywhere inside the last record line,
  // including just before its newline.
  for (std::size_t cut = last; cut < whole.size(); ++cut) {
    spit(ck.path(), whole.substr(0, cut));
    std::optional<CheckpointReader> reader = CheckpointReader::load(ck.path());
    ASSERT_TRUE(reader.has_value()) << "cut at " << cut;
    EXPECT_EQ(reader->records(), 2u) << "cut at " << cut;
    EXPECT_NE(reader->lookup(0, cells[0]), nullptr) << "cut at " << cut;
    EXPECT_NE(reader->lookup(1, cells[1]), nullptr) << "cut at " << cut;
    EXPECT_EQ(reader->lookup(2, cells[2]), nullptr) << "cut at " << cut;
  }
}

TEST(CheckpointJournal, CorruptMiddleRecordResumesToCleanReport) {
  const std::vector<ExperimentConfig> cells = seeded_cells(4);
  MatrixOptions options;
  options.jobs = 1;  // records land in cell order

  TempFile clean_ck{"clean_journal"};
  TempFile clean_report{"clean_report"};
  options.checkpoint.path = clean_ck.path();
  const MatrixResult clean = run_matrix_checked(cells, options);
  ASSERT_TRUE(clean.ok());
  ASSERT_TRUE(write_file_atomic(clean_report.path(),
                                matrix_report_json(cells, clean.series)));

  // Flip one byte inside the second of four records: its checksum fails,
  // so only the first record survives.
  TempFile ck{"flipped"};
  std::string bytes = slurp(clean_ck.path());
  const std::size_t second = bytes.find('\n', bytes.find('\n') + 1) + 1;
  bytes[second + 20] ^= 0x01;
  spit(ck.path(), bytes);
  std::optional<CheckpointReader> reader = CheckpointReader::load(ck.path());
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->records(), 1u);

  // Resume recompacts the journal and re-runs everything after the flip.
  TempFile resumed_report{"resumed_report"};
  options.checkpoint.path = ck.path();
  options.checkpoint.resume = true;
  const MatrixResult resumed = run_matrix_checked(cells, options);
  ASSERT_TRUE(resumed.ok());
  EXPECT_EQ(resumed.cells_resumed, 1u);
  EXPECT_EQ(resumed.cells_run, 3u);
  ASSERT_TRUE(write_file_atomic(resumed_report.path(),
                                matrix_report_json(cells, resumed.series)));
  EXPECT_EQ(slurp(resumed_report.path()), slurp(clean_report.path()));
  EXPECT_EQ(slurp(ck.path()), slurp(clean_ck.path()));
}

TEST(CheckpointJournal, Version1FileGivesZeroRecordsAndAFreshRun) {
  const std::vector<ExperimentConfig> cells = seeded_cells(1);
  TempFile ck{"v1"};
  spit(ck.path(),
       "{\"format\":\"bnm-matrix-checkpoint\",\"version\":1,\"cells\":1,"
       "\"records\":[{\"cell\":0,\"config_hash\":\"" +
           cell_config_hash_hex(cells[0]) +
           "\",\"series\":{\"case_label\":\"STALE\",\"method_name\":\"\","
           "\"failures\":0,\"first_error\":\"\",\"accounting\":{"
           "\"timeouts\":0,\"transport_errors\":0,\"degraded\":0,"
           "\"http_retries\":0,\"http_timeouts\":0},\"samples\":[]}}]}\n");
  std::string error;
  EXPECT_FALSE(CheckpointReader::load(ck.path(), &error));
  EXPECT_NE(error.find("version"), std::string::npos);

  MatrixOptions options;
  options.jobs = 1;
  options.checkpoint.path = ck.path();
  options.checkpoint.resume = true;
  const MatrixResult result = run_matrix_checked(cells, options);
  EXPECT_EQ(result.cells_resumed, 0u);
  EXPECT_EQ(result.cells_run, 1u);
  EXPECT_NE(result.series[0].case_label, "STALE");
  std::optional<CheckpointReader> reader = CheckpointReader::load(ck.path());
  ASSERT_TRUE(reader.has_value());
  EXPECT_EQ(reader->records(), 1u);
}

TEST(CheckpointJournal, DeeplyNestedHeaderIsRejectedNotACrash) {
  // The header line is parsed before any checksum is checked, so a crafted
  // or corrupt file reaches the JSON parser as-is.
  const std::vector<ExperimentConfig> cells = seeded_cells(1);
  TempFile ck{"nested"};
  spit(ck.path(), std::string(1000000, '[') + "\n");
  std::string error;
  EXPECT_FALSE(CheckpointReader::load(ck.path(), &error));
  EXPECT_NE(error.find("nesting too deep"), std::string::npos) << error;

  MatrixOptions options;
  options.jobs = 1;
  options.checkpoint.path = ck.path();
  options.checkpoint.resume = true;
  const MatrixResult result = run_matrix_checked(cells, options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.cells_resumed, 0u);
  EXPECT_EQ(result.cells_run, 1u);
}

TEST(CheckpointJournal, UnopenablePathFailsBeforeAnyCellRuns) {
  const std::vector<ExperimentConfig> cells = seeded_cells(2);
  const std::string path = "no_such_dir_for_checkpoints/ck.json";
  MatrixOptions options;
  options.jobs = 1;
  options.checkpoint.path = path;
  int cells_run = 0;
  try {
    run_matrix_checked(cells, options,
                       [&](const ExperimentConfig& config, CellWatchdog*) {
                         ++cells_run;
                         return run_experiment(config);
                       });
    ADD_FAILURE() << "an unopenable checkpoint path was accepted";
  } catch (const std::runtime_error& e) {
    EXPECT_NE(std::string{e.what()}.find(path), std::string::npos) << e.what();
  }
  EXPECT_EQ(cells_run, 0);
}

TEST(CheckpointJournal, CellIsPersistedBeforeItIsAnnounced) {
  const std::vector<ExperimentConfig> cells = seeded_cells(16);
  TempFile ck{"announced"};
  std::mutex mu;
  std::vector<std::string> violations;
  MatrixOptions options;
  options.jobs = 4;
  options.checkpoint.path = ck.path();
  options.checkpoint.flush_every = 1;
  options.progress = [&](std::size_t done, std::size_t) {
    std::optional<CheckpointReader> reader = CheckpointReader::load(ck.path());
    const std::size_t on_disk = reader ? reader->records() : 0;
    if (on_disk < done) {
      std::lock_guard<std::mutex> lock{mu};
      violations.push_back(std::to_string(on_disk) + " records on disk at " +
                           std::to_string(done) + " done");
    }
  };
  const MatrixResult result = run_matrix_checked(cells, options);
  EXPECT_TRUE(result.ok());
  EXPECT_EQ(result.progress_errors, 0u);
  EXPECT_TRUE(violations.empty()) << violations.front();
}

TEST(FaultPlanValidation, RejectsIllFormedPlansOnConstruction) {
  sim::Simulation sim{1};

  net::FaultPlan bad_prob;
  bad_prob.name = "bad-prob";
  bad_prob.loss_probability = 1.5;
  EXPECT_THROW(
      { net::FaultInjector injector(sim, bad_prob); },
      std::invalid_argument);
  try {
    net::FaultInjector injector{sim, bad_prob};
  } catch (const std::invalid_argument& e) {
    // The error names the plan and the offending knob.
    EXPECT_NE(std::string{e.what()}.find("bad-prob"), std::string::npos);
    EXPECT_NE(std::string{e.what()}.find("loss_probability"),
              std::string::npos);
  }

  net::FaultPlan bad_ge;
  bad_ge.bursty_loss = net::GilbertElliottConfig{};
  bad_ge.bursty_loss->p_good_to_bad = -0.25;
  EXPECT_THROW(
      { net::FaultInjector injector(sim, bad_ge); },
      std::invalid_argument);

  net::FaultPlan bad_window;
  bad_window.blackhole(sim::TimePoint::epoch() + sim::Duration::seconds(5),
                       sim::TimePoint::epoch() + sim::Duration::seconds(2));
  EXPECT_THROW(
      { net::FaultInjector injector(sim, bad_window); },
      std::invalid_argument);

  net::FaultPlan bad_ordinal;
  bad_ordinal.drop_data_segments.push_back(0);
  EXPECT_THROW(
      { net::FaultInjector injector(sim, bad_ordinal); },
      std::invalid_argument);

  // A well-formed plan still constructs fine.
  net::FaultPlan good;
  good.loss_probability = 0.5;
  good.blackhole(sim::TimePoint::epoch(),
                 sim::TimePoint::epoch() + sim::Duration::seconds(1));
  good.drop_nth_data_segment(1);
  EXPECT_NO_THROW({ net::FaultInjector injector(sim, good); });
}

}  // namespace
}  // namespace bnm::core

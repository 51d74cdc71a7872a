// The emitted-file contract end to end: benchutil::write_result turns a
// bench's declared gates into the file's gates[] block and its exit code,
// and tools/bench_schema_check rejects every kind of drift between an
// emitted file and its tables in docs/BENCH_SCHEMAS.md (unknown field,
// missing field, type mismatch, a documented row with no field), a file
// whose gates failed, and a torn or checksum-failing journal line. Every
// format src/ persists (matrix and campaign checkpoints and reports,
// passive reports) is written small by its real writer and checked
// against the real document.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_schema.h"
#include "bench_util.h"
#include "core/campaign.h"
#include "core/checkpoint.h"
#include "core/fnv1a.h"
#include "core/parallel_runner.h"
#include "core/testbed.h"
#include "passive/rtt_estimator.h"

namespace bnm::benchutil {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// A fixture table in front of the real document, so the gates[] rows the
// fixture files are checked against are the ones the benches live by.
std::string schemas(const std::string& extra_rows = "") {
  return "## BENCH_fixture.json (`fixture`)\n\n"
         "| Field | Type | Notes |\n"
         "|---|---|---|\n"
         "| `count` | integer | |\n"
         "| `nested.ms`, `nested.ratio` | number | |\n"
         "| `nested.ok` | bool | **gate** |\n"
         "| `note` | string, optional | |\n"
         "| `rows` | array | |\n"
         "| `rows[].site` | string | |\n" +
         extra_rows + "\n" + slurp(BNM_BENCH_SCHEMAS_MD);
}

Json fixture(bool ok = true) {
  Json rows = Json::array();
  rows.push(obj({{"site", Json::string("a")}}));
  return obj({
      {"count", integer(3)},
      {"nested", obj({{"ms", num(1.5)}, {"ratio", num(2)}, {"ok", flag(ok)}})},
      {"rows", rows},
  });
}

std::vector<Gate> fixture_gates() {
  return {is_true("nested.ok"),
          either(below("nested.ms", 1.0), below("nested.ratio", 3.0)),
          at_least("count", 3)};
}

/// A fresh directory per test (ctest runs tests in parallel), holding the
/// file under the basename that selects the fixture table.
class BenchSchema : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string{"bench_schema_"} +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
    path_ = dir_ + "/BENCH_fixture.json";
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write(const Json& doc) {
    std::ofstream{path_, std::ios::binary | std::ios::trunc} << doc.dump();
  }
  /// The fixture written by the bench helper, parsed back.
  Json emitted() {
    EXPECT_EQ(write_result(path_.c_str(), fixture(), fixture_gates()), 0);
    return *obs::json::parse(slurp(path_));
  }
  std::vector<std::string> check(const std::string& extra_rows = "") {
    return tools::check_file(path_, schemas(extra_rows));
  }

  std::string dir_;
  std::string path_;
};

TEST_F(BenchSchema, HelperOutputMatchesItsTableAndTheGatesTable) {
  const Json doc = emitted();
  const auto errors = check();
  EXPECT_TRUE(errors.empty()) << errors.front();

  const Json* gates = doc.find("gates");
  ASSERT_NE(gates, nullptr);
  ASSERT_EQ(gates->items().size(), 3u);
  const Json& slack = gates->items()[1];
  EXPECT_EQ(slack.find("name")->as_string(), "nested.ms");
  EXPECT_EQ(slack.find("op")->as_string(), "<");
  EXPECT_EQ(slack.find("value")->as_double(), 1.5);
  EXPECT_EQ(slack.find("or")->find("name")->as_string(), "nested.ratio");
  EXPECT_TRUE(slack.find("pass")->as_bool());  // the alternative holds
}

TEST_F(BenchSchema, HelperReturnsNonZeroWhenAnyGateFails) {
  EXPECT_EQ(write_result(path_.c_str(), fixture(/*ok=*/false), fixture_gates()),
            1);
  EXPECT_EQ(write_result(path_.c_str(), fixture(),
                         {is_true("nested.ok"), at_least("count", 4)}),
            1);
  EXPECT_EQ(write_result(path_.c_str(), fixture(),
                         {either(below("nested.ms", 1.0),
                                 below("nested.ratio", 2.0))}),
            1);
  // A gate on a field the document lacks fails too.
  EXPECT_EQ(write_result(path_.c_str(), fixture(), {is_true("nested.gone")}),
            1);
  EXPECT_EQ(write_result(path_.c_str(), fixture(), {at_least("count", 3)}), 0);
}

TEST_F(BenchSchema, RejectsAFileWhoseGateFailed) {
  write_result(path_.c_str(), fixture(/*ok=*/false), fixture_gates());
  const auto errors = check();
  ASSERT_EQ(errors.size(), 1u);
  EXPECT_NE(errors[0].find("gates[0].pass: expected true"), std::string::npos)
      << errors[0];
}

TEST_F(BenchSchema, RejectsAnUnknownField) {
  Json doc = emitted();
  doc.add("extra", integer(1));
  write(doc);
  const auto errors = check();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("unknown field \"extra\""), std::string::npos);
}

TEST_F(BenchSchema, RejectsAMissingRequiredField) {
  Json doc = emitted();
  doc.members().erase(doc.members().begin());  // "count"
  write(doc);
  const auto errors = check();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("missing required field \"count\""),
            std::string::npos);
}

TEST_F(BenchSchema, AcceptsAnOptionalFieldWhenPresent) {
  Json doc = emitted();
  doc.add("note", Json::string("present"));
  write(doc);
  EXPECT_TRUE(check().empty());
}

TEST_F(BenchSchema, RejectsATypeMismatch) {
  Json doc = emitted();
  doc.members()[0].second = Json::string("3");  // "count" is an integer
  write(doc);
  const auto errors = check();
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("count: expected integer"), std::string::npos)
      << errors[0];

  Json nested = emitted();
  nested.members()[2].second.items()[0] = integer(7);  // rows[0] not object
  write(nested);
  EXPECT_FALSE(check().empty());
}

TEST_F(BenchSchema, RejectsADocRowWithNoMatchingField) {
  emitted();
  const auto errors = check("| `nested.ghost` | number | |\n");
  ASSERT_FALSE(errors.empty());
  EXPECT_NE(errors[0].find("missing required field \"ghost\""),
            std::string::npos)
      << errors[0];
}

TEST_F(BenchSchema, RejectsUnparseableDocRows) {
  emitted();
  EXPECT_FALSE(check("| `count2` | counter | |\n").empty());  // no such type
  EXPECT_FALSE(check("| count2 | integer | |\n").empty());    // no backticks
  // Rows for fields the file has, so only the row's own spelling can fail.
  const auto first_error = [&](const std::string& row) {
    const auto errors = check(row);
    return errors.empty() ? std::string{} : errors.front();
  };
  EXPECT_NE(first_error("| `.count` | integer | |\n")
                .find("malformed path `.count`"),
            std::string::npos);
  EXPECT_NE(first_error("| `nested.*` | number | |\n")
                .find("malformed path `nested.*`"),
            std::string::npos);
  EXPECT_NE(first_error("| `count` | mixed | |\n").find("unknown type \"mixed\""),
            std::string::npos);
  EXPECT_FALSE(tools::check_file(path_, "no tables here\n").empty());
}

// ---- Formats src/ persists, written by their real writers ---------------

/// A fresh directory per test; files are named as scripts/check.sh names
/// them, so the basename selects the same doc tables.
class PersistedFormat : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::string{"persisted_"} +
           ::testing::UnitTest::GetInstance()->current_test_info()->name();
    std::filesystem::create_directories(dir_);
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  std::string path(const std::string& base) const { return dir_ + "/" + base; }
  static std::vector<std::string> check(const std::string& file) {
    return tools::check_file(file, slurp(BNM_BENCH_SCHEMAS_MD));
  }
  static void spit(const std::string& file, const std::string& bytes) {
    std::ofstream{file, std::ios::binary | std::ios::trunc} << bytes;
  }

  /// A 2-cell matrix run, checkpointed and reported under `tag`.
  void write_matrix(const std::string& tag) {
    std::vector<core::ExperimentConfig> cells(2);
    for (std::size_t i = 0; i < cells.size(); ++i) {
      cells[i].kind = i ? methods::ProbeKind::kWebSocket
                        : methods::ProbeKind::kXhrGet;
      cells[i].runs = 2;
    }
    core::MatrixOptions options;
    options.jobs = 1;
    options.checkpoint.path = path("CHECKPOINT_matrix_" + tag + ".json");
    const core::MatrixResult result = core::run_matrix_checked(cells, options);
    ASSERT_TRUE(core::write_file_atomic(
        path("REPORT_matrix_" + tag + ".json"),
        core::matrix_report_json(cells, result.series)));
  }

  std::string dir_;
};

/// Every error, one per line, for a failure message.
std::string joined(const std::vector<std::string>& errors) {
  std::string out;
  for (const std::string& e : errors) out += e + "\n";
  return out;
}

TEST_F(PersistedFormat, MatrixCheckpointAndReportMatchTheDoc) {
  write_matrix("small");
  for (const char* base :
       {"CHECKPOINT_matrix_small.json", "REPORT_matrix_small.json"}) {
    const auto errors = check(path(base));
    EXPECT_TRUE(errors.empty()) << base << "\n" << joined(errors);
  }
}

TEST_F(PersistedFormat, CampaignCheckpointAndReportMatchTheDoc) {
  core::CampaignSpec spec;
  spec.seed = 7;
  spec.clients = 6;
  spec.shards = 2;
  spec.runs_per_client = 1;
  core::CampaignOptions options;
  options.jobs = 1;
  options.checkpoint = path("CHECKPOINT_campaign.json");
  const core::CampaignResult result = core::run_campaign(spec, options);
  ASSERT_GT(result.aggregate.samples, 0u);
  ASSERT_TRUE(core::write_file_atomic(path("REPORT_campaign.json"),
                                      core::campaign_report_json(spec, result)));
  for (const char* base : {"CHECKPOINT_campaign.json", "REPORT_campaign.json"}) {
    const auto errors = check(path(base));
    EXPECT_TRUE(errors.empty()) << base << "\n" << joined(errors);
  }
}

TEST_F(PersistedFormat, PassiveReportMatchesTheDoc) {
  // A few timestamped echoes over the testbed, appraised from its tap.
  core::Testbed::Config config;
  config.tcp.timestamps = true;
  core::Testbed bed{config};
  std::shared_ptr<net::TcpConnection> conn;
  net::TcpCallbacks callbacks;
  callbacks.on_connect = [&] {
    for (int i = 1; i <= 3; ++i) {
      bed.sim().scheduler().schedule_after(
          sim::Duration::millis(120 * i),
          [&] { conn->send(std::string(100, 'p')); });
    }
  };
  conn = bed.client().tcp_connect(bed.tcp_echo_endpoint(), std::move(callbacks));
  bed.sim().scheduler().run_until(bed.sim().now() + sim::Duration::seconds(2));

  passive::PassiveRttEstimator estimator;
  estimator.consume(bed.client().capture());
  ASSERT_GT(estimator.counters().samples, 0u);
  spit(path("REPORT_passive_live.json"), estimator.report_json("schema-test"));
  const auto errors = check(path("REPORT_passive_live.json"));
  EXPECT_TRUE(errors.empty()) << joined(errors);
}

/// Line 2 of a journal (its first record) rewritten by `edit`, with the
/// checksum recomputed when `resum`.
std::string with_first_record(const std::string& journal,
                              const std::function<void(Json&)>& edit,
                              bool resum = true) {
  const std::size_t begin = journal.find('\n') + 1;
  const std::size_t end = journal.find('\n', begin);
  const std::string line = journal.substr(begin, end - begin);
  const std::string object = line.substr(0, line.size() - 17);
  Json record = *obs::json::parse(object);
  edit(record);
  const std::string dumped = record.dump();
  const std::string sum =
      resum ? core::hex16(core::fnv1a(dumped)) : line.substr(line.size() - 16);
  return journal.substr(0, begin) + dumped + " " + sum + journal.substr(end);
}

TEST_F(PersistedFormat, RejectsAnUnknownFieldInAJournalRecord) {
  write_matrix("unknown");
  const std::string file = path("CHECKPOINT_matrix_unknown.json");
  spit(file, with_first_record(slurp(file), [](Json& record) {
         record.add("extra", integer(1));
       }));
  const auto errors = check(file);
  ASSERT_EQ(errors.size(), 1u) << joined(errors);
  EXPECT_NE(errors[0].find(":2: unknown field \"extra\""), std::string::npos)
      << errors[0];
}

TEST_F(PersistedFormat, RejectsAJournalRecordWithABadChecksum) {
  write_matrix("checksum");
  const std::string file = path("CHECKPOINT_matrix_checksum.json");
  // A record changed after its checksum was taken.
  spit(file, with_first_record(
                 slurp(file),
                 [](Json& record) { record.members()[0].second = integer(9); },
                 /*resum=*/false));
  const auto errors = check(file);
  ASSERT_EQ(errors.size(), 1u) << joined(errors);
  EXPECT_NE(errors[0].find(":2: record checksum mismatch"), std::string::npos)
      << errors[0];
}

TEST_F(PersistedFormat, RejectsATornJournalLine) {
  write_matrix("torn");
  const std::string file = path("CHECKPOINT_matrix_torn.json");
  const std::string journal = slurp(file);
  // A kill mid-append leaves the last line without its '\n'...
  spit(file, journal.substr(0, journal.size() - 5));
  EXPECT_NE(joined(check(file)).find("does not end with a newline"),
            std::string::npos);
  // ... or, cut short and terminated, without its checksum.
  const std::size_t last = journal.rfind('\n', journal.size() - 2) + 1;
  spit(file, journal.substr(0, last + 10) + "\n");
  EXPECT_NE(joined(check(file)).find(":3: record line lacks its checksum"),
            std::string::npos);
}

TEST_F(PersistedFormat, RejectsAMatrixReportWithoutResults) {
  write_matrix("noresults");
  const std::string file = path("REPORT_matrix_noresults.json");
  Json report = *obs::json::parse(slurp(file));
  auto& members = report.members();
  std::erase_if(members, [](const auto& m) { return m.first == "results"; });
  spit(file, report.dump());
  const auto errors = check(file);
  ASSERT_EQ(errors.size(), 1u) << joined(errors);
  EXPECT_NE(errors[0].find("missing required field \"results\""),
            std::string::npos)
      << errors[0];
}

}  // namespace
}  // namespace bnm::benchutil

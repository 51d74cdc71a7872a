// The bench-result contract end to end: benchutil::write_result turns a
// bench's declared gates into the file's gates[] block and its exit code,
// and tools/bench_schema_check rejects every kind of drift between an
// emitted file and its table in docs/BENCH_SCHEMAS.md (unknown field,
// missing field, type mismatch, a documented row with no field) as well as
// a file whose gates failed.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_schema.h"
#include "bench_util.h"

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
  EXPECT_NE(errors[0].find("gate failed: \"nested.ok\""), std::string::npos)
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
  EXPECT_FALSE(tools::check_file(path_, "no tables here\n").empty());
}

}  // namespace
}  // namespace bnm::benchutil

// Shared helpers for the table/figure reproduction binaries.
//
// Every bench prints a "paper vs measured" section; PASS/CHECK markers are
// qualitative (shape) checks, not absolute-number assertions - the paper's
// absolute values came from 2012-era hardware and real browsers, ours from
// the calibrated testbed simulator.
//
// Common CLI, shared by every bench binary (call benchutil::init first):
//   --runs=N   repetitions per experiment cell (default 50, the paper's)
//   --jobs=N   worker threads for experiment matrices (default: all cores)
// Anything else is returned as a positional argument (e.g. fig3's CSV path).
//
// Benches with a machine-readable result build it as one obs::json
// document and hand it, with their hard gates, to write_result(): the
// document, its gates[] block and the exit code all come from that one
// declaration (fields: docs/BENCH_SCHEMAS.md).
#pragma once

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <initializer_list>
#include <map>
#include <optional>
#include <string>
#include <vector>

#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/parallel_runner.h"
#include "obs/json.h"
#include "report/boxplot_render.h"
#include "report/cdf_render.h"
#include "report/table.h"

namespace bnm::benchutil {

/// Default repetition count (the paper's "we run it for 50 times").
inline constexpr int kRuns = 50;

struct Options {
  int runs = kRuns;
  int jobs = 0;  ///< 0 = auto (hardware concurrency)
  std::vector<std::string> positional;
};

inline Options& options() {
  static Options opts;
  return opts;
}

/// Parse the shared bench CLI into options(). Returns the options for
/// convenience; exits with a usage message on malformed flags.
inline Options& init(int argc, char** argv) {
  Options& opts = options();
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto int_flag = [&](const char* prefix, int& out) {
      if (arg.rfind(prefix, 0) != 0) return false;
      char* end = nullptr;
      const long v = std::strtol(arg.c_str() + std::strlen(prefix), &end, 10);
      if (end == nullptr || *end != '\0' || v <= 0) {
        std::fprintf(stderr, "invalid value in '%s'\n", arg.c_str());
        std::exit(2);
      }
      out = static_cast<int>(v);
      return true;
    };
    if (int_flag("--runs=", opts.runs) || int_flag("--jobs=", opts.jobs)) {
      continue;
    }
    if (arg == "--help" || arg == "-h") {
      std::printf("usage: %s [--runs=N] [--jobs=N] [args...]\n", argv[0]);
      std::exit(0);
    }
    opts.positional.push_back(arg);
  }
  return opts;
}

/// Banner for a table/figure section.
inline void banner(const std::string& title) {
  std::printf("\n============================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("============================================================\n");
}

inline void shape_check(bool ok, const std::string& what) {
  std::printf("  [%s] %s\n", ok ? "OK" : "DEVIATES", what.c_str());
}

inline void progress_dot() {
  std::printf(".");
  std::fflush(stdout);
}

/// Build one matrix cell. runs <= 0 picks up the --runs value.
inline core::ExperimentConfig make_config(browser::BrowserId b,
                                          browser::OsId os,
                                          methods::ProbeKind kind,
                                          int runs = 0,
                                          bool java_nanotime = false,
                                          bool appletviewer = false) {
  core::ExperimentConfig cfg;
  cfg.browser = b;
  cfg.os = os;
  cfg.kind = kind;
  cfg.runs = runs > 0 ? runs : options().runs;
  cfg.java_use_nanotime = java_nanotime;
  cfg.java_via_appletviewer = appletviewer;
  return cfg;
}

/// Run one case and return the series (prints a progress dot).
inline core::OverheadSeries run_case(browser::BrowserId b, browser::OsId os,
                                     methods::ProbeKind kind,
                                     int runs = 0,
                                     bool java_nanotime = false,
                                     bool appletviewer = false) {
  progress_dot();
  return core::run_experiment(
      make_config(b, os, kind, runs, java_nanotime, appletviewer));
}

/// Run a batch of cells through the parallel runner, honouring --jobs and
/// printing one progress dot per completed cell. Results in input order,
/// byte-identical to running each cell serially.
inline std::vector<core::OverheadSeries> run_cases(
    const std::vector<core::ExperimentConfig>& cells) {
  return core::run_matrix(cells, options().jobs,
                          [](std::size_t, std::size_t) { progress_dot(); });
}

/// Box-plot rows ("<label> d1" / "<label> d2") for one series.
inline void add_box_rows(std::vector<report::BoxRow>& rows,
                         const core::OverheadSeries& s) {
  if (s.samples.empty()) return;
  rows.push_back({s.case_label + " d1", s.d1_box()});
  rows.push_back({s.case_label + " d2", s.d2_box()});
}

// ---- Result documents and gates ----------------------------------------

using Json = obs::json::Value;

inline Json num(double d) { return Json::number(d); }
inline Json integer(std::uint64_t n) {
  return Json::integer(static_cast<std::int64_t>(n));
}
inline Json flag(bool b) { return Json::boolean(b); }
inline Json obj(std::initializer_list<obs::json::Member> members) {
  Json v = Json::object();
  for (const auto& [key, value] : members) v.add(key, value);
  return v;
}

/// One pass condition `value op bound` on a field of a result document,
/// named by its dotted path ("checkpoint.identical").
struct Check {
  std::string path;
  std::string op;  ///< "==", "<" or ">="
  Json bound;
};

/// A hard gate: the bench exits non-zero when it fails. `otherwise` is an
/// alternative check that passes it too (a noise slack: "< 1 % or < 1 ms").
struct Gate {
  Check check;
  std::optional<Check> otherwise;
};

inline Gate is_true(std::string path) {
  return {{std::move(path), "==", flag(true)}, std::nullopt};
}
inline Gate below(std::string path, double bound) {
  return {{std::move(path), "<", num(bound)}, std::nullopt};
}
inline Gate at_least(std::string path, double bound) {
  return {{std::move(path), ">=", num(bound)}, std::nullopt};
}
inline Gate either(Gate gate, Gate alternative) {
  gate.otherwise = std::move(alternative.check);
  return gate;
}

namespace detail {

/// The field at a dotted path; null when any step is missing.
inline Json lookup(const Json& doc, const std::string& path) {
  const Json* v = &doc;
  for (std::size_t at = 0; v && at <= path.size();) {
    const std::size_t dot = std::min(path.find('.', at), path.size());
    v = v->find(std::string_view{path}.substr(at, dot - at));
    at = dot + 1;
  }
  return v ? *v : Json::null();
}

inline bool holds(const Json& value, const Check& c) {
  if (c.op == "==" && value.is_bool() && c.bound.is_bool()) {
    return value.as_bool() == c.bound.as_bool();
  }
  if (!value.is_number() || !c.bound.is_number()) return false;
  const double v = value.as_double(), b = c.bound.as_double();
  if (c.op == "==") return v == b;
  if (c.op == "<") return v < b;
  return c.op == ">=" && v >= b;
}

inline std::string show(const Json& v) {
  if (!v.is_number()) return v.dump();
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v.as_double());
  return buf;
}

}  // namespace detail

/// Append `gates` to `doc` as its gates[] block ({name, value, op, bound,
/// [or], pass}), write the document to `path`, print one [OK]/[FAIL] line
/// per gate, and return the bench's exit code: 0 when the file was written
/// and every gate passed, 1 otherwise.
inline int write_result(const char* path, Json doc,
                        const std::vector<Gate>& gates) {
  Json block = Json::array();
  bool all_pass = true;
  for (const Gate& g : gates) {
    const auto entry = [&doc](const Check& c, Json& out) {
      Json value = detail::lookup(doc, c.path);
      const bool ok = detail::holds(value, c);
      out.add("name", Json::string(c.path));
      out.add("value", value);
      out.add("op", Json::string(c.op));
      out.add("bound", c.bound);
      return std::pair{ok, c.path + " = " + detail::show(value) + " " +
                               c.op + " " + detail::show(c.bound)};
    };
    Json e = Json::object();
    auto [pass, line] = entry(g.check, e);
    if (g.otherwise) {
      Json alt = Json::object();
      const auto [alt_pass, alt_line] = entry(*g.otherwise, alt);
      pass = pass || alt_pass;
      line += " (or " + alt_line + ")";
      e.add("or", std::move(alt));
    }
    e.add("pass", flag(pass));
    block.push(std::move(e));
    all_pass = all_pass && pass;
    std::printf("  [%s] %s\n", pass ? "OK" : "FAIL", line.c_str());
  }
  doc.add("gates", std::move(block));
  if (!core::write_file_atomic(path, doc.dump() + '\n')) {
    std::fprintf(stderr, "cannot write %s\n", path);
    return 1;
  }
  std::printf("\nwrote %s\n", path);
  return all_pass ? 0 : 1;
}

}  // namespace bnm::benchutil

// Campaign driver CLI (core::run_campaign) — and its chaos harness.
//
// Runs a population campaign end to end and writes the canonical report:
//
//   clean run:   campaign --clients=2000 --shards=8 --report=clean.json
//   hard kill:   campaign --clients=2000 --shards=8 --checkpoint=ck.json
//                --kill-after=K        (process _Exit(42)s from inside the
//                shard-progress callback — the checkpoint for that shard
//                was already flushed, so this is the worst-case crash point)
//   resume:      campaign ... --checkpoint=ck.json --resume
//                --report=resumed.json
//
// scripts/check.sh asserts `cmp clean.json resumed.json` and also that an
// N-shard report is byte-identical to the 1-shard serial run's — the two
// identities the campaign aggregate's exact-merge design guarantees.
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <string>

#include "core/campaign.h"
#include "core/checkpoint.h"

namespace {

using namespace bnm;

struct Options {
  core::CampaignSpec spec;
  int jobs = 0;
  std::string report;
  std::string checkpoint;
  bool resume = false;
  int flush_every = 1;
  long kill_after = -1;  ///< hard _Exit(42) after K completed shards
  bool quiet = false;
};

[[noreturn]] void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--clients=N] [--shards=N] [--runs=N] [--jobs=N]\n"
      "          [--seed=N] [--report=PATH] [--checkpoint=PATH] [--resume]\n"
      "          [--flush-every=N] [--kill-after=K] [--quiet]\n",
      argv0);
  std::exit(2);
}

bool parse_long(const char* s, long* out) {
  char* end = nullptr;
  *out = std::strtol(s, &end, 10);
  return end && *end == '\0';
}

Options parse_args(int argc, char** argv) {
  Options opt;
  opt.spec.clients = 2000;
  opt.spec.shards = 8;
  opt.spec.runs_per_client = 2;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    long v = 0;
    if (const char* s = value("--clients=")) {
      if (!parse_long(s, &v) || v < 0) usage(argv[0]);
      opt.spec.clients = static_cast<std::uint64_t>(v);
    } else if (const char* s = value("--shards=")) {
      if (!parse_long(s, &v) || v < 1) usage(argv[0]);
      opt.spec.shards = static_cast<int>(v);
    } else if (const char* s = value("--runs=")) {
      if (!parse_long(s, &v) || v < 1) usage(argv[0]);
      opt.spec.runs_per_client = static_cast<int>(v);
    } else if (const char* s = value("--jobs=")) {
      if (!parse_long(s, &v)) usage(argv[0]);
      opt.jobs = static_cast<int>(v);
    } else if (const char* s = value("--seed=")) {
      if (!parse_long(s, &v) || v < 0) usage(argv[0]);
      opt.spec.seed = static_cast<std::uint64_t>(v);
    } else if (const char* s = value("--report=")) {
      opt.report = s;
    } else if (const char* s = value("--checkpoint=")) {
      opt.checkpoint = s;
    } else if (arg == "--resume") {
      opt.resume = true;
    } else if (const char* s = value("--flush-every=")) {
      if (!parse_long(s, &v) || v < 1) usage(argv[0]);
      opt.flush_every = static_cast<int>(v);
    } else if (const char* s = value("--kill-after=")) {
      if (!parse_long(s, &opt.kill_after) || opt.kill_after < 1) {
        usage(argv[0]);
      }
    } else if (arg == "--quiet") {
      opt.quiet = true;
    } else {
      usage(argv[0]);
    }
  }
  return opt;
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = parse_args(argc, argv);

  long completed = 0;  // this invocation's shard completions
  core::CampaignOptions options;
  options.jobs = opt.jobs;
  options.checkpoint = opt.checkpoint;
  options.resume = opt.resume;
  options.flush_every = opt.flush_every;
  options.progress = [&](std::size_t done, std::size_t total) {
    const long n = ++completed;
    if (!opt.quiet) {
      std::fprintf(stderr, "campaign: %zu/%zu shards\n", done, total);
    }
    if (opt.kill_after > 0 && n >= opt.kill_after) {
      // Simulated crash at the worst moment: after this shard's checkpoint
      // flush, before the engine regains control. No destructors, no
      // atexit — as close to kill -9 as portable code gets.
      std::fprintf(stderr, "campaign: hard kill after %ld shards\n", n);
      std::_Exit(42);
    }
  };

  core::CampaignResult result;
  try {
    result = core::run_campaign(opt.spec, options);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "campaign: %s\n", e.what());
    return 1;
  }

  std::fprintf(stderr,
               "campaign: clients=%" PRIu64 " samples=%" PRIu64
               " failed=%" PRIu64 " shards=%zu run=%zu resumed=%zu\n",
               result.aggregate.clients, result.aggregate.samples,
               result.aggregate.failed_clients, result.shards,
               result.shards_run, result.shards_resumed);

  if (!opt.report.empty() &&
      !core::write_file_atomic(opt.report,
                               core::campaign_report_json(opt.spec, result))) {
    std::fprintf(stderr, "campaign: cannot write report %s\n",
                 opt.report.c_str());
    return 1;
  }
  return 0;
}

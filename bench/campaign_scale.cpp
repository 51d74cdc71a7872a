// Campaign-scale harness: how fast and how small the campaign layer is.
//
// Three sections, emitted to BENCH_campaign_scale.json with its gates[];
// the bench exits non-zero when a gate fails:
//
//   1. Headline throughput: one full campaign (default 100k clients x 1
//      run) through core::run_campaign — clients/sec has a Release floor.
//   2. Shard identity: the same small population run as 1 shard serially
//      and as 8 shards, reports compared byte for byte ("identical_shards")
//      — the campaign layer's core correctness claim.
//   3. Memory model: exact accounting of the aggregation state. One
//      CampaignAggregate is a fixed few hundred KB for a given sketch grid;
//      campaign aggregation memory is (shards + 1) aggregates (per-shard
//      checkpoint records + the merged result), O(shards) and independent
//      of the client count ("independent_of_clients" — doubling the
//      population must not change aggregate_bytes). Peak RSS is reported
//      informationally (it includes the allocator's high-water mark).
//
//   $ campaign_scale [--clients=N] [--shards=N] [--runs=N] [--jobs=N]
#include <sys/resource.h>

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "bench_util.h"
#include "core/campaign.h"

using namespace bnm;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

long peak_rss_kb() {
  struct rusage ru {};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
  return ru.ru_maxrss;  // KiB on Linux
}

core::CampaignSpec base_spec(std::uint64_t clients, int shards, int runs) {
  core::CampaignSpec spec;
  spec.seed = 1729;
  spec.clients = clients;
  spec.shards = shards;
  spec.runs_per_client = runs;
  return spec;
}

struct Headline {
  std::uint64_t clients = 0;
  int runs = 0;
  int shards = 0;
  int jobs = 0;
  double wall_ms = 0;
  std::uint64_t samples = 0;
  std::uint64_t failed_clients = 0;
  double clients_per_sec() const {
    return wall_ms > 0 ? static_cast<double>(clients) / (wall_ms / 1e3) : 0;
  }
};

Headline bench_headline(std::uint64_t clients, int shards, int runs,
                        int jobs) {
  Headline h;
  h.clients = clients;
  h.runs = runs;
  h.shards = shards;

  const core::CampaignSpec spec = base_spec(clients, shards, runs);
  core::CampaignOptions options;
  options.jobs = jobs;

  std::printf("headline: %" PRIu64 " clients x %d runs, %d shards ... ",
              clients, runs, shards);
  std::fflush(stdout);
  const auto t0 = Clock::now();
  const core::CampaignResult result = core::run_campaign(spec, options);
  h.wall_ms = ms_between(t0, Clock::now());
  h.jobs = jobs;
  h.samples = result.aggregate.samples;
  h.failed_clients = result.aggregate.failed_clients;
  std::printf("%.1f ms   (%.0f clients/s, %" PRIu64 " samples, %" PRIu64
              " failed)\n",
              h.wall_ms, h.clients_per_sec(), h.samples, h.failed_clients);
  return h;
}

struct Identity {
  std::uint64_t clients = 0;
  std::size_t report_bytes = 0;
  bool identical_shards = false;
};

Identity bench_identity(int jobs) {
  Identity id;
  id.clients = 2000;
  std::printf("shard identity: %" PRIu64
              " clients, 1 shard serial vs 8 shards ... ",
              id.clients);
  std::fflush(stdout);

  core::CampaignSpec serial_spec = base_spec(id.clients, 1, 2);
  core::CampaignOptions serial_opts;
  serial_opts.jobs = 1;
  const core::CampaignResult serial =
      core::run_campaign(serial_spec, serial_opts);
  const std::string serial_report =
      core::campaign_report_json(serial_spec, serial);

  core::CampaignSpec sharded_spec = base_spec(id.clients, 8, 2);
  core::CampaignOptions sharded_opts;
  sharded_opts.jobs = jobs;
  const core::CampaignResult sharded =
      core::run_campaign(sharded_spec, sharded_opts);
  const std::string sharded_report =
      core::campaign_report_json(sharded_spec, sharded);

  id.report_bytes = serial_report.size();
  id.identical_shards = serial_report == sharded_report;
  std::printf("%s (%zu-byte reports)\n",
              id.identical_shards ? "identical" : "DIFFER", id.report_bytes);
  return id;
}

struct Memory {
  std::size_t aggregate_bytes = 0;  ///< one shard's full aggregation state
  bool independent_of_clients = false;
  long rss_kb = 0;
  struct Point {
    int shards;
    std::size_t aggregation_bytes;  ///< (shards + 1) * aggregate_bytes
  };
  Point points[3];
};

Memory bench_memory() {
  Memory mem;
  std::printf("memory model:\n");

  // Two real campaigns, same shape, 2x the clients: the aggregation state
  // must not grow by a byte.
  core::CampaignOptions opts;
  opts.jobs = 1;
  const core::CampaignSpec small_spec = base_spec(500, 4, 1);
  const core::CampaignSpec large_spec = base_spec(1000, 4, 1);
  const core::CampaignResult small = core::run_campaign(small_spec, opts);
  const core::CampaignResult large = core::run_campaign(large_spec, opts);
  mem.aggregate_bytes = small.aggregate.memory_bytes();
  mem.independent_of_clients =
      small.aggregate.memory_bytes() == large.aggregate.memory_bytes();
  std::printf("  one aggregate      ... %zu bytes\n", mem.aggregate_bytes);
  std::printf("  500 vs 1000 clients .. %zu vs %zu bytes (%s)\n",
              small.aggregate.memory_bytes(), large.aggregate.memory_bytes(),
              mem.independent_of_clients ? "independent of clients"
                                         : "GROWS WITH CLIENTS");

  // Aggregation memory by shard count: the engine holds one merged result
  // plus (checkpointing on) one record per completed shard.
  const int shard_counts[3] = {1, 8, 64};
  for (int i = 0; i < 3; ++i) {
    const int s = shard_counts[i];
    mem.points[i].shards = s;
    mem.points[i].aggregation_bytes =
        (static_cast<std::size_t>(s) + 1) * mem.aggregate_bytes;
    std::printf("  %3d shards         ... %zu bytes aggregation state\n", s,
                mem.points[i].aggregation_bytes);
  }
  mem.rss_kb = peak_rss_kb();
  std::printf("  peak RSS           ... %ld KiB (informational)\n",
              mem.rss_kb);
  return mem;
}

benchutil::Json to_json(const Headline& h, const Identity& id,
                        const Memory& mem) {
  using namespace benchutil;
  Json per_shards = Json::array();
  for (const Memory::Point& p : mem.points) {
    per_shards.push(obj({{"shards", integer(p.shards)},
                         {"aggregation_bytes", integer(p.aggregation_bytes)}}));
  }
  return obj({
      {"clients", integer(h.clients)},
      {"runs_per_client", integer(h.runs)},
      {"shards", integer(h.shards)},
      {"jobs", integer(h.jobs)},
      {"wall_ms", num(h.wall_ms)},
      {"clients_per_sec", num(h.clients_per_sec())},
      {"samples", integer(h.samples)},
      {"failed_clients", integer(h.failed_clients)},
      {"identity", obj({
                       {"clients", integer(id.clients)},
                       {"report_bytes", integer(id.report_bytes)},
                       {"identical_shards", flag(id.identical_shards)},
                   })},
      {"memory", obj({
                     {"aggregate_bytes", integer(mem.aggregate_bytes)},
                     {"independent_of_clients",
                      flag(mem.independent_of_clients)},
                     {"peak_rss_kb", integer(mem.rss_kb)},
                     {"per_shards", per_shards},
                 })},
  });
}

}  // namespace

int main(int argc, char** argv) {
  std::uint64_t clients = 100000;
  int shards = 64;
  int runs = 1;
  int jobs = 0;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* s = value("--clients=")) {
      clients = std::strtoull(s, nullptr, 10);
    } else if (const char* s = value("--shards=")) {
      shards = std::atoi(s);
    } else if (const char* s = value("--runs=")) {
      runs = std::atoi(s);
    } else if (const char* s = value("--jobs=")) {
      jobs = std::atoi(s);
    } else {
      std::fprintf(stderr,
                   "usage: %s [--clients=N] [--shards=N] [--runs=N] "
                   "[--jobs=N]\n",
                   argv[0]);
      return 2;
    }
  }

  benchutil::banner("campaign_scale: population campaign throughput & memory");

  const Headline h = bench_headline(clients, shards, runs, jobs);
  std::printf("\n");
  const Identity id = bench_identity(jobs);
  std::printf("\n");
  const Memory mem = bench_memory();

  benchutil::shape_check(h.failed_clients == 0, "no clients failed");
  // The throughput floor sits far below the tens of thousands of clients/s
  // a Release build measures, but far above anything a per-client-
  // accumulation regression would leave standing.
  return benchutil::write_result(
      "BENCH_campaign_scale.json", to_json(h, id, mem),
      {
          benchutil::is_true("identity.identical_shards"),
          benchutil::is_true("memory.independent_of_clients"),
          benchutil::at_least("clients_per_sec", 5000),
      });
}

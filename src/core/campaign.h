// Fleet-scale measurement campaigns over the job runner.
//
// A matrix run (parallel_runner.h) answers "what do these exact cells
// produce?" and keeps every sample. A *campaign* answers the population
// question the paper's §6 deployment implies — "across 100k heterogeneous
// clients, what delay accuracy does each method/profile deliver?" — and
// keeping every sample would cost O(clients · samples) memory. The campaign
// layer therefore aggregates as it goes:
//
//   * CampaignSpec samples a client population deterministically: a
//     (browser, OS) case mix, a probe-method mix filtered by each case's
//     capabilities, and per-client path conditions (log-normal RTT,
//     bandwidth choices, a lossy fraction). Client k's configuration is a
//     pure function of (spec, k) — never of the shard layout.
//   * Clients are partitioned into contiguous shards, and each shard is one
//     unit of the job runner (core::run_units, parallel_runner.h): on the
//     calling thread when the resolved jobs == 1, on a ThreadPool
//     otherwise, with the runner's cancel and progress contract. Each
//     shard folds its clients into a CampaignAggregate: per-method and
//     per-profile stats::QuantileSketch grids, fixed-bucket overhead
//     histograms (the same bounds as the registry's
//     experiment.browser_overhead_us), and resilience counters. Aggregate state is a few hundred KB regardless
//     of client count, so campaign memory is O(shards), not
//     O(clients · samples).
//   * Shard aggregates merge with exact integer/extremum arithmetic —
//     commutative and associative — so the campaign report is byte-identical
//     whether the campaign ran on 1 shard serially or N shards on a pool,
//     and whether it ran straight through or was killed and resumed.
//     scripts/check.sh gates both identities on every run.
//   * Checkpoint/resume shares the matrix checkpoint's append-only journal
//     (core/journal.h): a header keyed by a stable hash of every
//     population-affecting spec field, then one checksummed line per
//     completed shard, appended before the shard is announced.
//     tools/campaign --kill-after exercises the crash path the same way
//     tools/chaos_matrix does for matrices.
//
// DESIGN.md §3h documents the architecture and the sketch's error bound;
// docs/BENCH_SCHEMAS.md documents the report and checkpoint formats.
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "browser/profile.h"
#include "core/experiment.h"
#include "obs/json.h"
#include "stats/quantile_sketch.h"

namespace bnm::sim {
class Trace;
}

namespace bnm::core {

inline constexpr const char* kCampaignCheckpointFormat =
    "bnm-campaign-checkpoint";
inline constexpr int kCampaignCheckpointVersion = 2;
inline constexpr const char* kCampaignReportFormat = "bnm-campaign-report";
inline constexpr int kCampaignReportVersion = 1;

/// Number of ProbeKind values (methods are aggregated per kind).
inline constexpr std::size_t kCampaignMethodCount = 11;

/// Bucket bounds (µs) of the per-method overhead histograms — the same
/// bounds obs registers for experiment.browser_overhead_us, so campaign
/// reports and metric snapshots bin identically.
inline constexpr std::array<std::uint64_t, 12> kOverheadBucketBoundsUs = {
    10, 20, 50, 100, 200, 500, 1000, 2000, 5000, 10000, 20000, 50000};

/// One weighted entry of the population's (browser, OS) case mix.
struct CaseWeight {
  browser::BrowserOsCase which;
  double weight = 1.0;
};

/// One weighted entry of the probe-method mix. Methods a sampled case
/// cannot run (no Flash/Java/WebSocket) are excluded from that client's
/// draw, renormalizing the remaining weights.
struct MethodWeight {
  methods::ProbeKind kind;
  double weight = 1.0;
};

struct CampaignSpec {
  std::uint64_t seed = 7;        ///< campaign seed; client k forks from it
  std::uint64_t clients = 10000;
  int shards = 64;               ///< contiguous client ranges; NOT hashed —
                                 ///< the report is shard-layout-independent
  int runs_per_client = 2;
  int min_rtt_window = 8;        ///< MovingMin window for the RTT baseline

  /// Population mixes. Empty = paper_cases() / all_probe_kinds(), uniform.
  std::vector<CaseWeight> cases;
  std::vector<MethodWeight> methods;

  /// Per-client path model.
  browser::DistSpec rtt_ms = browser::DistSpec::lognormal_med(40.0, 0.6);
  std::vector<double> bandwidth_mbps{10.0, 50.0, 100.0};
  double lossy_fraction = 0.1;    ///< clients with a lossy access link
  double loss_probability = 0.01; ///< per-packet loss for lossy clients

  /// Per-client experiment knobs, tightened from the single-cell defaults
  /// so a 100k-client campaign converges: short think gaps, a bounded
  /// sample deadline, and HTTP request timeouts + one retry.
  sim::Duration inter_run_gap_min = sim::Duration::millis(500);
  sim::Duration inter_run_gap_max = sim::Duration::millis(1500);
  sim::Duration sample_deadline = sim::Duration::seconds(20);
  sim::Duration http_request_timeout = sim::Duration::seconds(2);
  int http_max_retries = 1;

  /// Sketch resolution shared by every aggregate in the campaign.
  stats::QuantileSketch::Grid grid{};
};

/// Stable FNV-1a hash over every field that changes what the population
/// *is* (seed, client count, mixes, path model, experiment knobs, grid).
/// The shard count is deliberately excluded: it changes only the execution
/// layout, and the report must not depend on it.
std::uint64_t campaign_spec_hash(const CampaignSpec& spec);
std::string campaign_spec_hash_hex(const CampaignSpec& spec);

/// Resolves the spec's mixes once (profiles, capability-filtered method
/// lists) and deals deterministic per-client configurations from them.
class CampaignSampler {
 public:
  explicit CampaignSampler(const CampaignSpec& spec);

  /// Client k's full experiment configuration. A pure function of
  /// (spec, client): the same client index yields the same config whatever
  /// shard runs it. `profile_index` (optional) receives the index into
  /// profile_labels() of the sampled case.
  ExperimentConfig client_config(std::uint64_t client,
                                 std::size_t* profile_index = nullptr) const;

  /// Labels of the resolved case mix, in report order ("C (U)", ...).
  const std::vector<std::string>& profile_labels() const {
    return profile_labels_;
  }
  std::size_t profile_count() const { return profile_labels_.size(); }

 private:
  struct ResolvedCase {
    browser::BrowserOsCase which;
    double weight = 1.0;
    std::vector<methods::ProbeKind> kinds;  ///< capability-filtered mix
    std::vector<double> kind_weights;       ///< parallel to `kinds`
    double kind_weight_total = 0;
  };

  const CampaignSpec& spec_;
  std::vector<ResolvedCase> cases_;
  double case_weight_total_ = 0;
  std::vector<std::string> profile_labels_;
};

/// Per-method streaming aggregate: sketches + integer tallies only, so
/// merge() is exact, commutative and associative.
struct MethodAggregate {
  std::uint64_t clients = 0;
  std::uint64_t samples = 0;  ///< accepted (Δd1, Δd2) pairs
  std::uint64_t timeouts = 0;
  std::uint64_t transport_errors = 0;
  std::uint64_t degraded = 0;
  std::uint64_t http_retries = 0;
  std::uint64_t http_timeouts = 0;
  stats::QuantileSketch d1, d2;
  /// |Δd| in µs, binned like obs' experiment.browser_overhead_us: bucket i
  /// holds samples <= bounds[i]; the 13th bucket is overflow.
  std::array<std::uint64_t, kOverheadBucketBoundsUs.size() + 1> overhead_us{};
};

/// Per-(browser, OS)-case aggregate over both measurements.
struct ProfileAggregate {
  std::uint64_t clients = 0;
  std::uint64_t samples = 0;
  stats::QuantileSketch d;  ///< Δd1 and Δd2 combined
};

/// Everything one shard (or the whole campaign) accumulates. All state is
/// integer counts, i64 fixed-point sums, or order-free extrema — the basis
/// of the layer's byte-identity guarantees.
struct CampaignAggregate {
  CampaignAggregate() = default;
  CampaignAggregate(const stats::QuantileSketch::Grid& grid,
                    std::size_t profiles);

  std::uint64_t clients = 0;
  std::uint64_t samples = 0;
  std::uint64_t failed_clients = 0;  ///< run_experiment threw; client skipped
  std::vector<MethodAggregate> methods;    ///< indexed by ProbeKind
  std::vector<ProfileAggregate> profiles;  ///< sampler's profile order
  stats::QuantileSketch net_rtt;           ///< network-level RTTs (ms)
  stats::QuantileSketch rtt_inflation;     ///< RTT − MovingMin baseline (ms)

  /// Fold one client's finished series in. `profile_index` is the
  /// sampler's index for the client's case; `min_rtt_window` sizes the
  /// MovingMin baseline for the inflation sketch.
  void fold(const OverheadSeries& series, std::size_t profile_index,
            int min_rtt_window);

  /// Exact merge; both sides must share grid and profile count.
  void merge(const CampaignAggregate& other);

  /// Bytes this aggregate holds live (sketch buckets dominate).
  std::size_t memory_bytes() const;

  obs::json::Value to_json() const;
  /// Rebuild from JSON. `out` supplies the expected shape (grid + profile
  /// count, from the spec); any mismatch fails.
  static bool from_json(const obs::json::Value& v, CampaignAggregate* out);
};

/// Shard-level completion callback: (shards done, shards total). The job
/// runner calls it exactly as it calls MatrixProgress: after the shard is
/// merged and checkpointed, and a throwing callback is absorbed and
/// counted, never wedges the campaign.
using CampaignProgress =
    std::function<void(std::size_t done, std::size_t total)>;

struct CampaignOptions {
  int jobs = 0;  ///< <= 0 = hardware concurrency, clamped to [1, shards]
  CampaignProgress progress;
  std::string checkpoint;  ///< empty = checkpointing off
  bool resume = false;     ///< load `checkpoint` and skip stored shards
  int flush_every = 1;     ///< appended shard records per journal fflush
  const std::atomic<bool>* cancel = nullptr;
  /// Optional span sink: one "campaign" span per executed shard (wall time
  /// mapped onto the trace's epoch). The trace must outlive run_campaign.
  sim::Trace* trace = nullptr;
};

struct CampaignResult {
  CampaignAggregate aggregate;
  std::vector<std::string> profile_labels;  ///< report order
  std::size_t shards = 0;          ///< resolved shard count (>=1, <=clients)
  std::size_t shards_run = 0;      ///< executed this invocation
  std::size_t shards_resumed = 0;  ///< taken from the checkpoint
  std::size_t progress_errors = 0;
  bool cancelled = false;
};

/// Run the campaign: sample the population, execute shards on the job
/// runner, checkpoint completed shards, and merge everything into one
/// aggregate. A shard that fails as a whole (rather than per client, which
/// counts in failed_clients) makes run_campaign throw after the other
/// shards drain, naming the shard. A checkpoint path that cannot be opened
/// throws before any shard runs.
CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options = {});

/// Canonical deterministic report. Derived solely from the spec's
/// population fields and the merged aggregate, so any two runs of the same
/// spec — different shard counts, different jobs, killed-and-resumed or
/// not — produce byte-identical report strings.
std::string campaign_report_json(const CampaignSpec& spec,
                                 const CampaignResult& result);

/// campaign_report_json straight to a file (atomic temp+rename).
bool write_campaign_report(const std::string& path, const CampaignSpec& spec,
                           const CampaignResult& result);

}  // namespace bnm::core

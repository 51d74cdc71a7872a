#include "core/campaign.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>
#include <optional>
#include <stdexcept>
#include <utility>

#include "core/checkpoint.h"
#include "core/fnv1a.h"
#include "core/journal.h"
#include "core/parallel_runner.h"
#include "obs/metrics.h"
#include "obs/prof.h"
#include "sim/arena.h"
#include "sim/trace.h"
#include "stats/moving_min.h"

namespace bnm::core {
namespace {

using obs::json::Value;

// ---------------------------------------------------------------------------
// Metrics (docs/OBSERVABILITY.md, "campaign.*" family).

const obs::Counter& shards_completed_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "campaign.shards_completed", "shards", "campaign shards folded in");
  return c;
}
const obs::Counter& shards_resumed_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "campaign.shards_resumed", "shards",
      "campaign shards restored from a checkpoint");
  return c;
}
const obs::Counter& clients_simulated_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "campaign.clients_simulated", "clients",
      "population clients simulated to completion");
  return c;
}
const obs::Counter& client_failures_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "campaign.client_failures", "clients",
      "clients whose experiment threw and was skipped");
  return c;
}
const obs::Counter& samples_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "campaign.samples", "samples",
      "accepted (d1, d2) sample pairs folded into campaign sketches");
  return c;
}
const obs::Counter& checkpoint_flushes_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "campaign.checkpoint_flushes", "writes",
      "campaign checkpoint journal fflushes that pushed appended records");
  return c;
}
const obs::Counter& progress_errors_counter() {
  static const obs::Counter c = obs::MetricsRegistry::instance().counter(
      "campaign.progress_errors", "exceptions",
      "campaign progress-callback exceptions absorbed");
  return c;
}

// ---------------------------------------------------------------------------
// Spec hashing: FNV-1a (core/fnv1a.h) over the population-defining fields,
// bit patterns for doubles (same discipline as cell_config_hash). The shard
// count and everything in CampaignOptions are excluded on purpose: they
// change how the campaign executes, never what it measures.

std::uint64_t mix(std::uint64_t h, std::uint64_t v) {
  h ^= v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2);
  return h;
}

/// Salt separating the campaign's per-client seed stream from every other
/// consumer of ExperimentConfig::seed.
constexpr std::uint64_t kClientSeedSalt = 0xC47A116E5EEDULL;

bool kind_supported(const browser::BrowserProfile& profile,
                    methods::ProbeKind kind) {
  using methods::ProbeKind;
  switch (kind) {
    case ProbeKind::kFlashGet:
    case ProbeKind::kFlashPost:
    case ProbeKind::kFlashSocket:
      return profile.supports_flash;
    case ProbeKind::kJavaGet:
    case ProbeKind::kJavaPost:
    case ProbeKind::kJavaSocket:
    case ProbeKind::kJavaUdp:
      return profile.supports_java;
    case ProbeKind::kWebSocket:
      return profile.supports_websocket;
    default:
      return true;  // XHR GET/POST, DOM: every Table-2 browser runs them
  }
}

/// Weighted pick: u in [0, total) walks the cumulative weights.
template <typename Weight>
std::size_t pick_weighted(double u, const std::vector<Weight>& weights) {
  double acc = 0;
  for (std::size_t i = 0; i < weights.size(); ++i) {
    acc += weights[i];
    if (u < acc) return i;
  }
  return weights.size() - 1;  // fp edge: u == total
}

// ---------------------------------------------------------------------------
// Aggregate JSON helpers.

Value u64_json(std::uint64_t v) {
  return Value::integer(static_cast<std::int64_t>(v));
}

bool read_u64(const Value* v, std::uint64_t* out) {
  if (!v || !v->is_int() || v->as_int() < 0) return false;
  *out = static_cast<std::uint64_t>(v->as_int());
  return true;
}

/// Parse a sketch member and require its grid to match `expected`'s.
bool read_sketch(const Value* v, stats::QuantileSketch* expected) {
  if (!v) return false;
  stats::QuantileSketch parsed;
  if (!stats::QuantileSketch::from_json(*v, &parsed)) return false;
  if (!(parsed.grid() == expected->grid())) return false;
  *expected = std::move(parsed);
  return true;
}

}  // namespace

// ---------------------------------------------------------------------------
// Spec hash.

std::uint64_t campaign_spec_hash(const CampaignSpec& spec) {
  Fnv1a h;
  h.u64(0xB14CA4BA16ULL);  // format salt
  h.u64(spec.seed);
  h.u64(spec.clients);
  h.i64(spec.runs_per_client);
  h.i64(spec.min_rtt_window);
  h.u64(spec.cases.size());
  for (const CaseWeight& c : spec.cases) {
    h.u64(static_cast<std::uint64_t>(c.which.browser));
    h.u64(static_cast<std::uint64_t>(c.which.os));
    h.f64(c.weight);
  }
  h.u64(spec.methods.size());
  for (const MethodWeight& m : spec.methods) {
    h.u64(static_cast<std::uint64_t>(m.kind));
    h.f64(m.weight);
  }
  h.u64(static_cast<std::uint64_t>(spec.rtt_ms.kind));
  h.f64(spec.rtt_ms.a);
  h.f64(spec.rtt_ms.b);
  h.u64(spec.bandwidth_mbps.size());
  for (double mbps : spec.bandwidth_mbps) h.f64(mbps);
  h.f64(spec.lossy_fraction);
  h.f64(spec.loss_probability);
  h.i64(spec.inter_run_gap_min.ns());
  h.i64(spec.inter_run_gap_max.ns());
  h.i64(spec.sample_deadline.ns());
  h.i64(spec.http_request_timeout.ns());
  h.i64(spec.http_max_retries);
  h.f64(spec.grid.lo);
  h.f64(spec.grid.hi);
  h.i64(spec.grid.cells);
  return h.value();
}

std::string campaign_spec_hash_hex(const CampaignSpec& spec) {
  return hex16(campaign_spec_hash(spec));
}

// ---------------------------------------------------------------------------
// CampaignSampler.

CampaignSampler::CampaignSampler(const CampaignSpec& spec) : spec_{spec} {
  std::vector<CaseWeight> cases = spec.cases;
  if (cases.empty()) {
    for (const browser::BrowserOsCase& c : browser::paper_cases()) {
      cases.push_back(CaseWeight{c, 1.0});
    }
  }
  std::vector<MethodWeight> methods = spec.methods;
  if (methods.empty()) {
    for (methods::ProbeKind k : browser::all_probe_kinds()) {
      methods.push_back(MethodWeight{k, 1.0});
    }
  }
  for (const CaseWeight& cw : cases) {
    if (!(cw.weight > 0)) {
      throw std::invalid_argument{"campaign: case weight must be > 0"};
    }
    // make_profile throws for combinations outside Table 2.
    const browser::BrowserProfile profile =
        browser::make_profile(cw.which.browser, cw.which.os);
    ResolvedCase rc;
    rc.which = cw.which;
    rc.weight = cw.weight;
    for (const MethodWeight& mw : methods) {
      if (!(mw.weight > 0)) {
        throw std::invalid_argument{"campaign: method weight must be > 0"};
      }
      if (!kind_supported(profile, mw.kind)) continue;
      rc.kinds.push_back(mw.kind);
      rc.kind_weights.push_back(mw.weight);
      rc.kind_weight_total += mw.weight;
    }
    if (rc.kinds.empty()) {
      throw std::invalid_argument{
          "campaign: case '" + cw.which.label() +
          "' supports none of the methods in the mix"};
    }
    case_weight_total_ += rc.weight;
    profile_labels_.push_back(cw.which.label());
    cases_.push_back(std::move(rc));
  }
}

ExperimentConfig CampaignSampler::client_config(
    std::uint64_t client, std::size_t* profile_index) const {
  // One private RNG stream per client, derived from (spec seed, client
  // index) only — shard layout and execution order can never perturb it.
  sim::Rng rng{mix(mix(kClientSeedSalt, spec_.seed), client)};

  const double cu = rng.uniform01() * case_weight_total_;
  double acc = 0;
  std::size_t ci = cases_.size() - 1;
  for (std::size_t i = 0; i < cases_.size(); ++i) {
    acc += cases_[i].weight;
    if (cu < acc) {
      ci = i;
      break;
    }
  }
  const ResolvedCase& rc = cases_[ci];
  if (profile_index) *profile_index = ci;

  const double mu = rng.uniform01() * rc.kind_weight_total;
  const std::size_t mi = pick_weighted(mu, rc.kind_weights);

  ExperimentConfig cfg;
  cfg.browser = rc.which.browser;
  cfg.os = rc.which.os;
  cfg.kind = rc.kinds[mi];
  cfg.runs = spec_.runs_per_client;
  cfg.seed = mix(mix(spec_.seed, kClientSeedSalt), client + 1);
  cfg.inter_run_gap_min = spec_.inter_run_gap_min;
  cfg.inter_run_gap_max = spec_.inter_run_gap_max;
  cfg.sample_deadline = spec_.sample_deadline;
  cfg.http_request_timeout = spec_.http_request_timeout;
  cfg.http_max_retries = spec_.http_max_retries;
  cfg.testbed.server_delay = spec_.rtt_ms.sample(rng);
  if (!spec_.bandwidth_mbps.empty()) {
    const auto bi = static_cast<std::size_t>(rng.uniform_int(
        0, static_cast<std::int64_t>(spec_.bandwidth_mbps.size()) - 1));
    cfg.testbed.bandwidth_bps = spec_.bandwidth_mbps[bi] * 1e6;
  }
  cfg.testbed.link_loss_probability =
      rng.chance(spec_.lossy_fraction) ? spec_.loss_probability : 0.0;
  return cfg;
}

// ---------------------------------------------------------------------------
// CampaignAggregate.

CampaignAggregate::CampaignAggregate(const stats::QuantileSketch::Grid& grid,
                                     std::size_t profiles)
    : net_rtt{grid}, rtt_inflation{grid} {
  methods.reserve(kCampaignMethodCount);
  for (std::size_t i = 0; i < kCampaignMethodCount; ++i) {
    MethodAggregate m;
    m.d1 = stats::QuantileSketch{grid};
    m.d2 = stats::QuantileSketch{grid};
    methods.push_back(std::move(m));
  }
  this->profiles.reserve(profiles);
  for (std::size_t i = 0; i < profiles; ++i) {
    ProfileAggregate p;
    p.d = stats::QuantileSketch{grid};
    this->profiles.push_back(std::move(p));
  }
}

void CampaignAggregate::fold(const OverheadSeries& series,
                             std::size_t profile_index, int min_rtt_window) {
  const auto mi = static_cast<std::size_t>(series.config.kind);
  MethodAggregate& m = methods.at(mi);
  ProfileAggregate& p = profiles.at(profile_index);

  ++clients;
  ++m.clients;
  ++p.clients;
  const std::uint64_t n = series.samples.size();
  samples += n;
  m.samples += n;
  p.samples += n;
  m.timeouts += static_cast<std::uint64_t>(series.accounting.timeouts);
  m.transport_errors +=
      static_cast<std::uint64_t>(series.accounting.transport_errors);
  m.degraded += static_cast<std::uint64_t>(series.accounting.degraded);
  m.http_retries += series.accounting.http_retries;
  m.http_timeouts += series.accounting.http_timeouts;

  const auto overhead_bucket = [](double d_ms) {
    const auto us = static_cast<std::uint64_t>(
        std::llround(std::fabs(d_ms) * 1000.0));
    std::size_t i = 0;
    while (i < kOverheadBucketBoundsUs.size() &&
           us > kOverheadBucketBoundsUs[i]) {
      ++i;  // same rule as obs::Histogram::observe
    }
    return i;
  };

  // One MovingMin per client over its network RTT stream: `sample − window
  // min` is the RTT inflation the min-filter baseline would remove.
  stats::MovingMin window{static_cast<std::size_t>(
      min_rtt_window > 0 ? min_rtt_window : 1)};
  for (const OverheadSample& s : series.samples) {
    m.d1.insert(s.d1_ms);
    m.d2.insert(s.d2_ms);
    ++m.overhead_us[overhead_bucket(s.d1_ms)];
    ++m.overhead_us[overhead_bucket(s.d2_ms)];
    p.d.insert(s.d1_ms);
    p.d.insert(s.d2_ms);
    net_rtt.insert(s.net_rtt1_ms);
    net_rtt.insert(s.net_rtt2_ms);
    rtt_inflation.insert(s.net_rtt1_ms - window.push(s.net_rtt1_ms));
    rtt_inflation.insert(s.net_rtt2_ms - window.push(s.net_rtt2_ms));
  }
}

void CampaignAggregate::merge(const CampaignAggregate& other) {
  clients += other.clients;
  samples += other.samples;
  failed_clients += other.failed_clients;
  for (std::size_t i = 0; i < methods.size(); ++i) {
    MethodAggregate& a = methods[i];
    const MethodAggregate& b = other.methods.at(i);
    a.clients += b.clients;
    a.samples += b.samples;
    a.timeouts += b.timeouts;
    a.transport_errors += b.transport_errors;
    a.degraded += b.degraded;
    a.http_retries += b.http_retries;
    a.http_timeouts += b.http_timeouts;
    a.d1.merge(b.d1);
    a.d2.merge(b.d2);
    for (std::size_t j = 0; j < a.overhead_us.size(); ++j) {
      a.overhead_us[j] += b.overhead_us[j];
    }
  }
  for (std::size_t i = 0; i < profiles.size(); ++i) {
    profiles[i].clients += other.profiles.at(i).clients;
    profiles[i].samples += other.profiles.at(i).samples;
    profiles[i].d.merge(other.profiles.at(i).d);
  }
  net_rtt.merge(other.net_rtt);
  rtt_inflation.merge(other.rtt_inflation);
}

std::size_t CampaignAggregate::memory_bytes() const {
  const auto sketch_heap = [](const stats::QuantileSketch& s) {
    return s.memory_bytes() - sizeof(stats::QuantileSketch);
  };
  std::size_t bytes = sizeof(*this);
  bytes += methods.capacity() * sizeof(MethodAggregate);
  bytes += profiles.capacity() * sizeof(ProfileAggregate);
  for (const MethodAggregate& m : methods) {
    bytes += sketch_heap(m.d1) + sketch_heap(m.d2);
  }
  for (const ProfileAggregate& p : profiles) bytes += sketch_heap(p.d);
  bytes += sketch_heap(net_rtt) + sketch_heap(rtt_inflation);
  return bytes;
}

obs::json::Value CampaignAggregate::to_json() const {
  Value v = Value::object();
  v.add("clients", u64_json(clients));
  v.add("samples", u64_json(samples));
  v.add("failed_clients", u64_json(failed_clients));
  Value ms = Value::array();
  for (const MethodAggregate& m : methods) {
    Value mv = Value::object();
    mv.add("clients", u64_json(m.clients));
    mv.add("samples", u64_json(m.samples));
    mv.add("timeouts", u64_json(m.timeouts));
    mv.add("transport_errors", u64_json(m.transport_errors));
    mv.add("degraded", u64_json(m.degraded));
    mv.add("http_retries", u64_json(m.http_retries));
    mv.add("http_timeouts", u64_json(m.http_timeouts));
    mv.add("d1", m.d1.to_json());
    mv.add("d2", m.d2.to_json());
    Value hist = Value::array();
    for (std::uint64_t b : m.overhead_us) hist.push(u64_json(b));
    mv.add("overhead_us", std::move(hist));
    ms.push(std::move(mv));
  }
  v.add("methods", std::move(ms));
  Value ps = Value::array();
  for (const ProfileAggregate& p : profiles) {
    Value pv = Value::object();
    pv.add("clients", u64_json(p.clients));
    pv.add("samples", u64_json(p.samples));
    pv.add("d", p.d.to_json());
    ps.push(std::move(pv));
  }
  v.add("profiles", std::move(ps));
  v.add("net_rtt", net_rtt.to_json());
  v.add("rtt_inflation", rtt_inflation.to_json());
  return v;
}

bool CampaignAggregate::from_json(const obs::json::Value& v,
                                  CampaignAggregate* out) {
  if (!v.is_object()) return false;
  if (!read_u64(v.find("clients"), &out->clients) ||
      !read_u64(v.find("samples"), &out->samples) ||
      !read_u64(v.find("failed_clients"), &out->failed_clients)) {
    return false;
  }
  const Value* ms = v.find("methods");
  if (!ms || !ms->is_array() || ms->items().size() != out->methods.size()) {
    return false;
  }
  for (std::size_t i = 0; i < out->methods.size(); ++i) {
    const Value& mv = ms->items()[i];
    if (!mv.is_object()) return false;
    MethodAggregate& m = out->methods[i];
    if (!read_u64(mv.find("clients"), &m.clients) ||
        !read_u64(mv.find("samples"), &m.samples) ||
        !read_u64(mv.find("timeouts"), &m.timeouts) ||
        !read_u64(mv.find("transport_errors"), &m.transport_errors) ||
        !read_u64(mv.find("degraded"), &m.degraded) ||
        !read_u64(mv.find("http_retries"), &m.http_retries) ||
        !read_u64(mv.find("http_timeouts"), &m.http_timeouts) ||
        !read_sketch(mv.find("d1"), &m.d1) ||
        !read_sketch(mv.find("d2"), &m.d2)) {
      return false;
    }
    const Value* hist = mv.find("overhead_us");
    if (!hist || !hist->is_array() ||
        hist->items().size() != m.overhead_us.size()) {
      return false;
    }
    for (std::size_t j = 0; j < m.overhead_us.size(); ++j) {
      if (!read_u64(&hist->items()[j], &m.overhead_us[j])) return false;
    }
  }
  const Value* ps = v.find("profiles");
  if (!ps || !ps->is_array() || ps->items().size() != out->profiles.size()) {
    return false;
  }
  for (std::size_t i = 0; i < out->profiles.size(); ++i) {
    const Value& pv = ps->items()[i];
    if (!pv.is_object()) return false;
    ProfileAggregate& p = out->profiles[i];
    if (!read_u64(pv.find("clients"), &p.clients) ||
        !read_u64(pv.find("samples"), &p.samples) ||
        !read_sketch(pv.find("d"), &p.d)) {
      return false;
    }
  }
  if (!read_sketch(v.find("net_rtt"), &out->net_rtt) ||
      !read_sketch(v.find("rtt_inflation"), &out->rtt_inflation)) {
    return false;
  }
  return true;
}

// ---------------------------------------------------------------------------
// Campaign checkpoint: the matrix checkpoint's journal (core/journal.h),
// with the spec hash, client count and shard count in the header and one
// record per completed shard.

namespace {

std::string checkpoint_header(const CampaignSpec& spec, std::size_t shards) {
  Value v = Value::object();
  v.add("format", Value::string(kCampaignCheckpointFormat));
  v.add("version", Value::integer(kCampaignCheckpointVersion));
  v.add("spec_hash", Value::string(campaign_spec_hash_hex(spec)));
  v.add("clients", u64_json(spec.clients));
  v.add("shards", u64_json(shards));
  return v.dump();
}

std::string shard_record(std::size_t shard, const CampaignAggregate& state) {
  Value r = Value::object();
  r.add("shard", u64_json(shard));
  r.add("state", state.to_json());
  return r.dump();
}

/// Load a campaign checkpoint and return per-shard aggregates. Forgiving
/// like CheckpointReader: a header for another spec, layout or version
/// gives "no records", and records stop at the first one that is torn,
/// corrupt or does not decode.
std::map<std::size_t, CampaignAggregate> load_campaign_checkpoint(
    const std::string& path, const CampaignSpec& spec, std::size_t shards,
    std::size_t profile_count) {
  std::map<std::size_t, CampaignAggregate> out;
  std::optional<Journal> journal = read_journal(path);
  if (!journal ||
      journal->header.dump() != checkpoint_header(spec, shards)) {
    return out;
  }
  for (const Value& r : journal->records) {
    const Value* shard = r.find("shard");
    const Value* state = r.find("state");
    CampaignAggregate agg{spec.grid, profile_count};
    if (!shard || !shard->is_int() || shard->as_int() < 0 ||
        shard->as_int() >= static_cast<std::int64_t>(shards) || !state ||
        !CampaignAggregate::from_json(*state, &agg)) {
      break;
    }
    out.insert_or_assign(static_cast<std::size_t>(shard->as_int()),
                         std::move(agg));
  }
  return out;
}

/// Shared completion state for the serial and pooled paths.
struct CampaignState {
  std::mutex mu;
  CampaignResult* result = nullptr;
  const CampaignOptions* options = nullptr;
  JournalWriter* checkpoint = nullptr;  ///< nullptr = off
  std::size_t done = 0;
  std::chrono::steady_clock::time_point started;
};

/// Simulate clients [first, last) into a fresh aggregate. Runs with an
/// arena scope active; the arena is rewound wholesale after every client
/// (the testbed dies with run_experiment; the aggregate uses the global
/// allocator).
CampaignAggregate run_shard_clients(const CampaignSampler& sampler,
                                    const CampaignSpec& spec,
                                    std::uint64_t first, std::uint64_t last,
                                    sim::Arena& arena) {
  CampaignAggregate agg{spec.grid, sampler.profile_count()};
  for (std::uint64_t client = first; client < last; ++client) {
    std::size_t profile_index = 0;
    ExperimentConfig cfg = sampler.client_config(client, &profile_index);
    try {
      const OverheadSeries series = run_experiment(std::move(cfg));
      agg.fold(series, profile_index, spec.min_rtt_window);
    } catch (const std::exception&) {
      ++agg.failed_clients;  // poisoned client, not a poisoned campaign
      client_failures_counter().add();
    }
    arena.reset();
  }
  return agg;
}

/// Fold one executed shard into the result: merge, checkpoint, metrics,
/// trace span, then the guarded progress callback — checkpoint strictly
/// before progress so a --kill-after harness that dies inside the callback
/// finds the shard durable on resume.
void finish_shard(CampaignState& st, std::size_t shard,
                  const CampaignAggregate& agg,
                  std::chrono::steady_clock::time_point shard_start) {
  const auto now = std::chrono::steady_clock::now();
  std::lock_guard<std::mutex> lock{st.mu};
  st.result->aggregate.merge(agg);
  ++st.result->shards_run;
  shards_completed_counter().add();
  clients_simulated_counter().add(agg.clients);
  samples_counter().add(agg.samples);
  if (st.checkpoint) {
    BNM_PROF_SCOPE("campaign.checkpoint_flush");
    st.checkpoint->append(shard_record(shard, agg));
  }
  if (st.options->trace) {
    const auto since = [&](std::chrono::steady_clock::time_point t) {
      return sim::Duration::nanos(
          std::chrono::duration_cast<std::chrono::nanoseconds>(t - st.started)
              .count());
    };
    st.options->trace->emit_span(
        sim::TimePoint::epoch() + since(shard_start), since(now) - since(shard_start),
        "campaign", "shard",
        {{"shard", static_cast<std::int64_t>(shard)},
         {"clients", static_cast<std::int64_t>(agg.clients)},
         {"samples", static_cast<std::int64_t>(agg.samples)},
         {"failed_clients", static_cast<std::int64_t>(agg.failed_clients)}});
  }
  ++st.done;
  if (st.options->progress) {
    try {
      st.options->progress(st.done, st.result->shards);
    } catch (...) {
      ++st.result->progress_errors;
      progress_errors_counter().add();
    }
  }
}

}  // namespace

// ---------------------------------------------------------------------------
// run_campaign.

CampaignResult run_campaign(const CampaignSpec& spec,
                            const CampaignOptions& options) {
  BNM_PROF_SCOPE("campaign.run");
  CampaignSampler sampler{spec};

  std::size_t shards = spec.shards < 1 ? 1 : static_cast<std::size_t>(spec.shards);
  if (spec.clients > 0 && shards > spec.clients) {
    shards = static_cast<std::size_t>(spec.clients);
  }
  if (spec.clients == 0) shards = 1;

  CampaignResult result;
  result.aggregate = CampaignAggregate{spec.grid, sampler.profile_count()};
  result.profile_labels = sampler.profile_labels();
  result.shards = shards;

  std::optional<JournalWriter> checkpoint;
  std::vector<bool> resumed(shards, false);
  if (!options.checkpoint.empty()) {
    std::vector<std::string> carried;
    if (options.resume) {
      for (auto& [shard, agg] :
           load_campaign_checkpoint(options.checkpoint, spec, shards,
                                    sampler.profile_count())) {
        result.aggregate.merge(agg);
        resumed[shard] = true;
        ++result.shards_resumed;
        carried.push_back(shard_record(shard, agg));
      }
      shards_resumed_counter().add(result.shards_resumed);
    }
    checkpoint.emplace(options.checkpoint, checkpoint_header(spec, shards),
                       carried, options.flush_every,
                       checkpoint_flushes_counter());
  }

  CampaignState st;
  st.result = &result;
  st.options = &options;
  st.checkpoint = checkpoint ? &*checkpoint : nullptr;
  st.done = result.shards_resumed;
  st.started = std::chrono::steady_clock::now();

  const auto shard_range = [&](std::size_t shard) {
    const std::uint64_t first = spec.clients * shard / shards;
    const std::uint64_t last = spec.clients * (shard + 1) / shards;
    return std::pair<std::uint64_t, std::uint64_t>{first, last};
  };
  const auto cancel_requested = [&] {
    return options.cancel &&
           options.cancel->load(std::memory_order_acquire);
  };

  const int jobs = resolve_jobs(options.jobs, shards);
  if (jobs == 1) {
    sim::Arena arena;
    sim::ArenaScope scope{&arena};
    for (std::size_t shard = 0; shard < shards; ++shard) {
      if (resumed[shard]) continue;
      if (cancel_requested()) {
        result.cancelled = true;
        break;
      }
      const auto [first, last] = shard_range(shard);
      const auto t0 = std::chrono::steady_clock::now();
      const CampaignAggregate agg =
          run_shard_clients(sampler, spec, first, last, arena);
      finish_shard(st, shard, agg, t0);
    }
  } else {
    ThreadPool pool{jobs};
    for (std::size_t shard = 0; shard < shards; ++shard) {
      if (resumed[shard]) continue;
      pool.submit([&, shard] {
        if (cancel_requested()) {
          std::lock_guard<std::mutex> lock{st.mu};
          result.cancelled = true;
          return;  // graceful drain: in-flight shards finish
        }
        thread_local sim::Arena worker_arena;
        sim::ArenaScope scope{&worker_arena};
        const auto [first, last] = shard_range(shard);
        const auto t0 = std::chrono::steady_clock::now();
        const CampaignAggregate agg =
            run_shard_clients(sampler, spec, first, last, worker_arena);
        finish_shard(st, shard, agg, t0);
      });
    }
    pool.wait_idle();
  }

  return result;  // ~JournalWriter flushes any flush_every remainder
}

// ---------------------------------------------------------------------------
// Report.

namespace {

/// Quantile summary of one sketch. Finite numbers only (NaN is not JSON):
/// an empty sketch reports zeros alongside its count of 0.
Value sketch_summary_json(const stats::QuantileSketch& s) {
  const bool some = s.count() > 0;
  const auto num = [&](double v) { return Value::number(some ? v : 0.0); };
  Value v = Value::object();
  v.add("count", u64_json(s.count()));
  v.add("min_ms", num(s.min()));
  v.add("max_ms", num(s.max()));
  v.add("mean_ms", num(s.mean()));
  v.add("p25_ms", num(s.quantile(0.25)));
  v.add("p50_ms", num(s.quantile(0.50)));
  v.add("p75_ms", num(s.quantile(0.75)));
  v.add("p90_ms", num(s.quantile(0.90)));
  v.add("p99_ms", num(s.quantile(0.99)));
  return v;
}

}  // namespace

std::string campaign_report_json(const CampaignSpec& spec,
                                 const CampaignResult& result) {
  Value v = Value::object();
  v.add("format", Value::string(kCampaignReportFormat));
  v.add("version", Value::integer(kCampaignReportVersion));
  v.add("spec_hash", Value::string(campaign_spec_hash_hex(spec)));
  // Population echo only — no shard count, no jobs, no resume provenance:
  // the report must be byte-identical across execution layouts.
  Value sp = Value::object();
  sp.add("seed", u64_json(spec.seed));
  sp.add("clients", u64_json(spec.clients));
  sp.add("runs_per_client", Value::integer(spec.runs_per_client));
  sp.add("min_rtt_window", Value::integer(spec.min_rtt_window));
  sp.add("rtt_median_ms", Value::number(spec.rtt_ms.median_ms()));
  sp.add("lossy_fraction", Value::number(spec.lossy_fraction));
  sp.add("loss_probability", Value::number(spec.loss_probability));
  v.add("spec", std::move(sp));

  const CampaignAggregate& agg = result.aggregate;
  Value totals = Value::object();
  totals.add("clients", u64_json(agg.clients));
  totals.add("samples", u64_json(agg.samples));
  totals.add("failed_clients", u64_json(agg.failed_clients));
  v.add("totals", std::move(totals));

  Value methods = Value::array();
  for (std::size_t i = 0; i < agg.methods.size(); ++i) {
    const MethodAggregate& m = agg.methods[i];
    Value mv = Value::object();
    mv.add("kind", Value::string(browser::probe_kind_name(
                       static_cast<methods::ProbeKind>(i))));
    mv.add("clients", u64_json(m.clients));
    mv.add("samples", u64_json(m.samples));
    mv.add("timeouts", u64_json(m.timeouts));
    mv.add("transport_errors", u64_json(m.transport_errors));
    mv.add("degraded", u64_json(m.degraded));
    mv.add("http_retries", u64_json(m.http_retries));
    mv.add("http_timeouts", u64_json(m.http_timeouts));
    mv.add("d1", sketch_summary_json(m.d1));
    mv.add("d2", sketch_summary_json(m.d2));
    Value hist = Value::object();
    Value bounds = Value::array();
    for (std::uint64_t b : kOverheadBucketBoundsUs) bounds.push(u64_json(b));
    hist.add("bounds_us", std::move(bounds));
    Value buckets = Value::array();
    for (std::uint64_t b : m.overhead_us) buckets.push(u64_json(b));
    hist.add("buckets", std::move(buckets));
    mv.add("overhead_us", std::move(hist));
    methods.push(std::move(mv));
  }
  v.add("methods", std::move(methods));

  Value profiles = Value::array();
  for (std::size_t i = 0; i < agg.profiles.size(); ++i) {
    const ProfileAggregate& p = agg.profiles[i];
    Value pv = Value::object();
    pv.add("case", Value::string(i < result.profile_labels.size()
                                     ? result.profile_labels[i]
                                     : std::string{"?"}));
    pv.add("clients", u64_json(p.clients));
    pv.add("samples", u64_json(p.samples));
    pv.add("d", sketch_summary_json(p.d));
    profiles.push(std::move(pv));
  }
  v.add("profiles", std::move(profiles));

  v.add("net_rtt", sketch_summary_json(agg.net_rtt));
  v.add("rtt_inflation", sketch_summary_json(agg.rtt_inflation));
  return v.dump() + "\n";
}

bool write_campaign_report(const std::string& path, const CampaignSpec& spec,
                           const CampaignResult& result) {
  return write_file_atomic(path, campaign_report_json(spec, result));
}

}  // namespace bnm::core

#include "passive/rtt_estimator.h"

#include <algorithm>
#include <utility>

#include "obs/json.h"
#include "obs/metrics.h"
#include "stats/descriptive.h"

namespace bnm::passive {

namespace {

// Sequence-space comparison (RFC 793 modular arithmetic), same discipline
// as net/tcp.cc.
bool seq_leq(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) <= 0;
}
bool seq_lt(std::uint32_t a, std::uint32_t b) {
  return static_cast<std::int32_t>(a - b) < 0;
}

// Sweep cadence for anchor eviction: amortized, content-deterministic.
constexpr std::uint64_t kEvictEvery = 4096;

// One row per PassiveCounters field, in report order: its report_json key
// and the `passive.*` registry counter it is published to.
struct CounterField {
  std::uint64_t PassiveCounters::*field;
  const char* key;
  const char* metric;
  const char* unit;
  const char* help;
};
constexpr CounterField kCounterFields[] = {
    {&PassiveCounters::packets, "packets", "passive.packets_scanned",
     "packets", "observations fed to the matcher"},
    {&PassiveCounters::ts_packets, "ts_packets", "passive.ts_packets",
     "packets", "observations carrying RFC 7323 TS"},
    {&PassiveCounters::anchors, "anchors", "passive.anchors", "anchors",
     "TSval anchors stored (first sight)"},
    {&PassiveCounters::duplicate_tsvals, "duplicate_tsvals",
     "passive.duplicate_tsvals", "packets",
     "repeat TSvals at coarse clock granularity (not re-anchored)"},
    {&PassiveCounters::retransmit_poisoned, "retransmit_poisoned",
     "passive.retransmit_poisoned", "anchors",
     "anchors poisoned by the Karn's-rule analogue"},
    {&PassiveCounters::suppressed_samples, "suppressed_samples",
     "passive.suppressed_samples", "samples",
     "echoes of poisoned anchors (discarded, never emitted)"},
    {&PassiveCounters::samples, "samples", "passive.samples", "samples",
     "RTT samples emitted"},
    {&PassiveCounters::unmatched_echoes, "unmatched_echoes",
     "passive.unmatched_echoes", "packets",
     "TSecr with no stored anchor (unidirectional visibility / evicted)"},
    {&PassiveCounters::evicted, "evicted", "passive.evicted_anchors",
     "anchors", "anchors aged out of the matching window"},
    {&PassiveCounters::half_flows, "half_flows", "passive.half_flows", "flows",
     "directional (src,dst) pairs observed"},
};

/// The registry counters of kCounterFields, index for index.
const std::vector<obs::Counter>& counter_metrics() {
  static const std::vector<obs::Counter> metrics = [] {
    std::vector<obs::Counter> m;
    for (const CounterField& f : kCounterFields) {
      m.push_back(obs::MetricsRegistry::instance().counter(f.metric, f.unit,
                                                           f.help));
    }
    return m;
  }();
  return metrics;
}

}  // namespace

void PassiveRttEstimator::observe(const net::Packet& pkt, sim::TimePoint at,
                                  std::size_t wire_payload_len) {
  observe_at(pkt, at, wire_payload_len, next_index_);
  ++next_index_;
}

void PassiveRttEstimator::observe_at(const net::Packet& pkt, sim::TimePoint at,
                                     std::size_t wire_payload_len,
                                     std::size_t index) {
  ++counters_.packets;
  const sim::TimePoint t = at.quantized_floor(config_.timestamp_quantum);
  if (counters_.packets % kEvictEvery == 0) maybe_evict(t);
  if (pkt.protocol != net::Protocol::kTcp || !pkt.ts.present) return;
  ++counters_.ts_packets;

  // --- forward half-flow: anchor this packet's TSval ---
  auto [fit, fresh_flow] = flows_.try_emplace(HalfFlowKey{pkt.src, pkt.dst});
  HalfFlow& fw = fit->second;
  if (fresh_flow) ++counters_.half_flows;

  // Karn's-rule analogue: a segment whose sequence space was already covered
  // (RTO/fast retransmit, zero-window probe poking an acked byte) cannot be
  // attributed a unique send time, so its TSval must never anchor a sample.
  bool retransmit = false;
  const std::uint32_t occupies =
      static_cast<std::uint32_t>(wire_payload_len) +
      (pkt.flags.syn ? 1 : 0) + (pkt.flags.fin ? 1 : 0);
  if (occupies > 0) {
    const std::uint32_t end = pkt.seq + occupies;
    if (fw.seen_seq && seq_leq(end, fw.max_seq_end)) {
      retransmit = true;
    } else {
      fw.max_seq_end =
          fw.seen_seq && seq_lt(end, fw.max_seq_end) ? fw.max_seq_end : end;
      fw.seen_seq = true;
    }
  }

  auto [ait, fresh_anchor] = fw.anchors.try_emplace(
      pkt.ts.tsval, Anchor{t, index, /*matched=*/false, retransmit});
  if (fresh_anchor) {
    ++counters_.anchors;
    if (retransmit) ++counters_.retransmit_poisoned;
  } else if (retransmit && !ait->second.poisoned) {
    // A coarse clock let the retransmit reuse the original's TSval: the
    // original anchor is now ambiguous too.
    ait->second.poisoned = true;
    ++counters_.retransmit_poisoned;
  } else if (!retransmit) {
    ++counters_.duplicate_tsvals;  // first sight keeps the anchor
  }

  // --- reverse half-flow: match this packet's TSecr against an anchor ---
  // TSecr is only meaningful on ACK segments, and zero means "never seen a
  // timestamp from you" (an initial SYN).
  if (!pkt.flags.ack || pkt.ts.tsecr == 0) return;
  const auto rit = flows_.find(HalfFlowKey{pkt.dst, pkt.src});
  if (rit == flows_.end()) {
    ++counters_.unmatched_echoes;
    return;
  }
  HalfFlow& rv = rit->second;
  const auto eit = rv.anchors.find(pkt.ts.tsecr);
  if (eit == rv.anchors.end()) {
    ++counters_.unmatched_echoes;
    return;
  }
  Anchor& anchor = eit->second;
  if (anchor.matched) return;  // cumulative ACKs repeat TSecr: one sample only
  anchor.matched = true;
  if (anchor.poisoned) {
    ++counters_.suppressed_samples;
    return;
  }
  PassiveSample s;
  s.from = pkt.dst;
  s.to = pkt.src;
  s.anchor_at = anchor.at;
  s.echo_at = t;
  s.rtt = t - anchor.at;
  s.tsval = pkt.ts.tsecr;
  s.anchor_index = anchor.index;
  s.echo_index = index;
  s.first_on_flow = !rv.sampled;
  rv.sampled = true;
  samples_.push_back(s);
  ++counters_.samples;
}

void PassiveRttEstimator::maybe_evict(sim::TimePoint now) {
  const sim::TimePoint cutoff = now - config_.anchor_window;
  for (auto& [key, flow] : flows_) {
    for (auto it = flow.anchors.begin(); it != flow.anchors.end();) {
      if (it->second.at.ns_since_epoch() < cutoff.ns_since_epoch()) {
        it = flow.anchors.erase(it);
        ++counters_.evicted;
      } else {
        ++it;
      }
    }
  }
}

void PassiveRttEstimator::consume(const net::PacketCapture& capture) {
  for (std::size_t i = 0; i < capture.size(); ++i) {
    const sim::TimePoint at =
        config_.use_true_time ? capture.true_time(i) : capture.timestamp(i);
    const net::Packet& pkt = capture.packet(i);
    observe_at(pkt, at,
               std::max(capture.wire_payload_len(i), pkt.payload.size()),
               next_index_);
    ++next_index_;
  }
  publish_metrics();
}

void PassiveRttEstimator::consume(const std::vector<net::PcapRecord>& records) {
  for (const net::PcapRecord& rec : records) {
    observe_at(rec.packet, rec.timestamp, rec.packet.payload.size(),
               next_index_);
    ++next_index_;
  }
  publish_metrics();
}

void PassiveRttEstimator::publish_metrics() {
  const std::vector<obs::Counter>& metrics = counter_metrics();
  for (std::size_t i = 0; i < metrics.size(); ++i) {
    const auto field = kCounterFields[i].field;
    metrics[i].add(counters_.*field - published_.*field);
  }
  published_ = counters_;
}

std::string PassiveRttEstimator::report_json(const std::string& label) const {
  using obs::json::escape_to;
  using obs::json::integer_to;

  // Group samples by (from, to) once: each flow's endpoint strings, its
  // "from > to" label and the text its samples open with are rendered once.
  struct Flow {
    std::string label;
    std::string head;  ///< a sample object up to its anchor_ns value
    std::vector<double> rtts;
  };
  std::vector<Flow> flows;
  std::vector<std::size_t> flow_of;  // sample index -> flows index
  flow_of.reserve(samples_.size());
  std::unordered_map<HalfFlowKey, std::size_t, HalfFlowKeyHash> index;
  for (const PassiveSample& s : samples_) {
    const auto [it, fresh] =
        index.try_emplace(HalfFlowKey{s.from, s.to}, flows.size());
    if (fresh) {  // endpoint strings are digits, dots and a colon
      const std::string from = s.from.to_string();
      const std::string to = s.to.to_string();
      flows.push_back({from + " > " + to,
                       "{\"from\":\"" + from + "\",\"to\":\"" + to +
                           "\",\"anchor_ns\":",
                       {}});
    }
    flows[it->second].rtts.push_back(static_cast<double>(s.rtt.ns()));
    flow_of.push_back(it->second);
  }
  // Flow summaries are ordered by label string, so the serialization never
  // depends on hash-map iteration order ("10.0.0.10:80" < "10.0.0.9:80").
  std::vector<Flow*> by_label;
  by_label.reserve(flows.size());
  for (Flow& f : flows) by_label.push_back(&f);
  std::sort(by_label.begin(), by_label.end(),
            [](const Flow* a, const Flow* b) { return a->label < b->label; });

  std::string out;
  out.reserve(512 + 128 * flows.size() + 128 * samples_.size());
  out += "{\"schema\":\"bnm.passive.report.v1\",\"label\":\"";
  escape_to(out, label);
  out += "\",\"quantum_ns\":";
  integer_to(out, config_.timestamp_quantum.ns());
  out += ",\"counters\":{";
  for (const CounterField& f : kCounterFields) {
    out += '"';
    out += f.key;
    out += "\":";
    integer_to(out, static_cast<std::int64_t>(counters_.*f.field));
    out += ',';
  }
  out.back() = '}';

  out += ",\"flows\":[";
  for (std::size_t i = 0; i < by_label.size(); ++i) {
    std::vector<double>& rtts = by_label[i]->rtts;
    std::sort(rtts.begin(), rtts.end());
    out += i == 0 ? "{\"flow\":\"" : ",{\"flow\":\"";
    escape_to(out, by_label[i]->label);
    out += "\",\"samples\":";
    integer_to(out, static_cast<std::int64_t>(rtts.size()));
    out += ",\"min_rtt_ns\":";
    integer_to(out, static_cast<std::int64_t>(rtts.front()));
    out += ",\"median_rtt_ns\":";
    integer_to(out,
               static_cast<std::int64_t>(stats::quantile_sorted(rtts, 0.5)));
    out += ",\"max_rtt_ns\":";
    integer_to(out, static_cast<std::int64_t>(rtts.back()));
    out += '}';
  }

  out += "],\"samples\":[";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const PassiveSample& s = samples_[i];
    if (i != 0) out += ',';
    out += flows[flow_of[i]].head;
    integer_to(out, s.anchor_at.ns_since_epoch());
    out += ",\"rtt_ns\":";
    integer_to(out, s.rtt.ns());
    out += ",\"tsval\":";
    integer_to(out, static_cast<std::int64_t>(s.tsval));
    out += s.first_on_flow ? ",\"first\":true}" : ",\"first\":false}";
  }
  out += "]}";
  return out;
}

}  // namespace bnm::passive

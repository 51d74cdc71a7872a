#include "passive/rtt_estimator.h"

#include <algorithm>
#include <bit>
#include <charconv>
#include <cstring>
#include <limits>
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

// The most anchors a scan of `n` observations, seen in order at times
// `time_at(0..n-1)`, holds at once: a sweep keeps those inside one `reach`
// (the window, plus a quantum for the flooring) of its own observation, and
// at most kEvictEvery more arrive before the next sweep; never more than
// `n`. A scan whose clock steps back can exceed it, and its anchor table
// then grows inside the loop as observe()'s does. A scan that ends within
// one reach of its start is all one stretch, and costs no pass.
template <typename TimeAt>
std::size_t most_live_anchors(std::size_t n, sim::Duration reach,
                              TimeAt time_at) {
  if (n == 0 || time_at(n - 1).ns_since_epoch() -
                        time_at(0).ns_since_epoch() <= reach.ns()) {
    return n;
  }
  std::size_t most = 0;
  for (std::size_t lo = 0, hi = 0; hi < n && most + kEvictEvery < n; ++hi) {
    const std::int64_t from = time_at(hi).ns_since_epoch() - reach.ns();
    while (time_at(lo).ns_since_epoch() < from) ++lo;
    most = std::max(most, hi - lo + 1);
  }
  return std::min<std::size_t>(n, most + kEvictEvery);
}

// Linear probing in an open-addressing index: `slots` has a power-of-two
// size, and each entry holds a position + 1, or 0 when free. Returns the
// entry whose position `is_key` accepts, or the free one where `key`
// belongs. Fibonacci hashing (the top bits of key * 2^64/phi) sends
// sequential TSvals far apart.
template <typename IsKey>
std::uint32_t& probe(std::vector<std::uint32_t>& slots, std::uint64_t key,
                     IsKey is_key) {
  const std::uint64_t mask = slots.size() - 1;
  const int shift = std::countl_zero(mask);
  for (std::uint64_t i = (key * 0x9e3779b97f4a7c15ULL) >> shift;;
       i = (i + 1) & mask) {
    std::uint32_t& slot = slots[i];
    if (slot == 0 || is_key(slot - 1)) return slot;
  }
}

std::uint64_t flow_key(const net::Endpoint& src, const net::Endpoint& dst) {
  const auto key = [](const net::Endpoint& e) {
    return (std::uint64_t{e.ip.raw()} << 16) | e.port;
  };
  return key(src) * 31 + key(dst);
}

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

/// Writes a string literal at `p`; returns the end.
template <std::size_t N>
char* put_literal(char* p, const char (&text)[N]) {
  std::memcpy(p, text, N - 1);
  return p + N - 1;
}

/// Writes `v` in decimal at `p` (room for 20 chars); returns the end.
char* put_integer(char* p, std::int64_t v) {
  return std::to_chars(p, p + 20, v).ptr;
}

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

void PassiveRttEstimator::observe(const net::Packet& pkt, sim::TimePoint at) {
  observe_at(net::PcapRecord::of(pkt, at), next_index_);
  ++next_index_;
}

std::uint32_t& PassiveRttEstimator::flow_slot(const net::Endpoint& src,
                                              const net::Endpoint& dst) {
  return probe(flow_slots_, flow_key(src, dst), [&](std::uint32_t f) {
    return flows_[f].src == src && flows_[f].dst == dst;
  });
}

std::uint32_t PassiveRttEstimator::flow_index(const net::Endpoint& src,
                                              const net::Endpoint& dst) {
  if ((flows_.size() + 1) * 2 > flow_slots_.size()) {
    // Grow at half load: re-index every half-flow into twice the slots.
    flow_slots_.assign(std::max<std::size_t>(16, flow_slots_.size() * 2), 0);
    for (std::uint32_t f = 0; f < flows_.size(); ++f) {
      flow_slot(flows_[f].src, flows_[f].dst) = f + 1;
    }
  }
  std::uint32_t& slot = flow_slot(src, dst);
  if (slot != 0) return slot - 1;
  const auto f = static_cast<std::uint32_t>(flows_.size());
  slot = f + 1;
  HalfFlow& fresh = flows_.emplace_back();
  fresh.src = src;
  fresh.dst = dst;
  ++counters_.half_flows;
  // Link the two directions once, so a TSecr lookup never hashes.
  if (const std::uint32_t r = flow_slot(dst, src); r != 0) {
    fresh.reverse = r - 1;
    flows_[r - 1].reverse = f;
  }
  return f;
}

std::uint32_t& PassiveRttEstimator::anchor_slot(std::uint32_t flow,
                                                std::uint32_t tsval) {
  return probe(anchor_slots_, (std::uint64_t{flow} << 32) | tsval,
               [&](std::uint32_t a) {
                 return anchors_[a].flow == flow && anchors_[a].tsval == tsval;
               });
}

void PassiveRttEstimator::reindex_anchors(std::size_t capacity) {
  anchor_slots_.assign(capacity, 0);
  for (std::uint32_t pos = 0; pos < anchors_.size(); ++pos) {
    anchor_slot(anchors_[pos].flow, anchors_[pos].tsval) = pos + 1;
  }
}

void PassiveRttEstimator::observe_at(const net::PcapRecord& rec,
                                     std::size_t index) {
  ++counters_.packets;
  const sim::TimePoint t =
      rec.timestamp.quantized_floor(config_.timestamp_quantum);
  if (counters_.packets % kEvictEvery == 0) maybe_evict(t);
  if (rec.protocol != net::Protocol::kTcp || !rec.ts.present) return;
  ++counters_.ts_packets;

  // --- forward half-flow: anchor this packet's TSval ---
  const std::uint32_t fi = flow_index(rec.src, rec.dst);
  HalfFlow& fw = flows_[fi];

  // Karn's-rule analogue: a segment whose sequence space was already covered
  // (RTO/fast retransmit, zero-window probe poking an acked byte) cannot be
  // attributed a unique send time, so its TSval must never anchor a sample.
  bool retransmit = false;
  const std::uint32_t occupies =
      rec.payload_len + (rec.flags.syn ? 1 : 0) + (rec.flags.fin ? 1 : 0);
  if (occupies > 0) {
    const std::uint32_t end = rec.seq + occupies;
    if (fw.seen_seq && seq_leq(end, fw.max_seq_end)) {
      retransmit = true;
    } else {
      fw.max_seq_end =
          fw.seen_seq && seq_lt(end, fw.max_seq_end) ? fw.max_seq_end : end;
      fw.seen_seq = true;
    }
  }

  // Grow at half load before probing, so the slot stays valid.
  if ((anchors_.size() + 1) * 2 > anchor_slots_.size()) {
    reindex_anchors(std::max<std::size_t>(64, anchor_slots_.size() * 2));
  }
  std::uint32_t& slot = anchor_slot(fi, rec.ts.tsval);
  if (slot == 0) {
    anchors_.push_back(
        Anchor{t, index, fi, rec.ts.tsval, /*matched=*/false, retransmit});
    slot = static_cast<std::uint32_t>(anchors_.size());
    oldest_anchor_ = std::min(oldest_anchor_, t);
    ++counters_.anchors;
    if (retransmit) ++counters_.retransmit_poisoned;
  } else if (Anchor& first = anchors_[slot - 1];
             retransmit && !first.poisoned) {
    // A coarse clock let the retransmit reuse the original's TSval: the
    // original anchor is now ambiguous too.
    first.poisoned = true;
    ++counters_.retransmit_poisoned;
  } else if (!retransmit) {
    ++counters_.duplicate_tsvals;  // first sight keeps the anchor
  }

  // --- reverse half-flow: match this packet's TSecr against an anchor ---
  // TSecr is only meaningful on ACK segments, and zero means "never seen a
  // timestamp from you" (an initial SYN).
  if (!rec.flags.ack || rec.ts.tsecr == 0) return;
  const std::uint32_t ri = fw.reverse;
  if (ri == kNoFlow) {
    ++counters_.unmatched_echoes;
    return;
  }
  const std::uint32_t echoed = anchor_slot(ri, rec.ts.tsecr);
  if (echoed == 0) {
    ++counters_.unmatched_echoes;
    return;
  }
  Anchor& anchor = anchors_[echoed - 1];
  if (anchor.matched) return;  // cumulative ACKs repeat TSecr: one sample only
  anchor.matched = true;
  if (anchor.poisoned) {
    ++counters_.suppressed_samples;
    return;
  }
  HalfFlow& rv = flows_[ri];
  PassiveSample s;
  s.from = rec.dst;
  s.to = rec.src;
  s.anchor_at = anchor.at;
  s.echo_at = t;
  s.rtt = t - anchor.at;
  s.tsval = rec.ts.tsecr;
  s.anchor_index = anchor.index;
  s.echo_index = index;
  s.first_on_flow = !rv.sampled;
  rv.sampled = true;
  samples_.push_back(s);
  sample_flows_.push_back(ri);
  ++counters_.samples;
}

void PassiveRttEstimator::maybe_evict(sim::TimePoint now) {
  const sim::TimePoint cutoff = now - config_.anchor_window;
  if (oldest_anchor_.ns_since_epoch() >= cutoff.ns_since_epoch()) return;
  counters_.evicted += std::erase_if(anchors_, [cutoff](const Anchor& a) {
    return a.at.ns_since_epoch() < cutoff.ns_since_epoch();
  });
  oldest_anchor_ =
      sim::TimePoint::from_ns(std::numeric_limits<std::int64_t>::max());
  for (const Anchor& a : anchors_) {
    oldest_anchor_ = std::min(oldest_anchor_, a.at);
  }
  // Slots for the survivors and for every anchor the observations before
  // the next sweep can add, so a sweep costs what the window holds.
  reindex_anchors(std::bit_ceil(
      std::max<std::size_t>(64, 2 * (anchors_.size() + kEvictEvery))));
}

void PassiveRttEstimator::reserve_for(std::size_t observations,
                                      std::size_t live_anchors) {
  const auto make_room = [](auto& v, std::size_t more) {
    if (v.capacity() - v.size() < more) {
      v.reserve(std::max(v.size() + more, 2 * v.capacity()));
    }
  };
  make_room(anchors_, live_anchors);
  make_room(samples_, observations);
  make_room(sample_flows_, observations);
  const std::size_t slots = std::bit_ceil(
      std::max<std::size_t>(64, 2 * (anchors_.size() + live_anchors)));
  if (slots > anchor_slots_.size()) reindex_anchors(slots);
}

void PassiveRttEstimator::consume(const net::PacketCapture& capture) {
  reserve_for(capture.size(),
              most_live_anchors(capture.size(), reach(), [&](std::size_t i) {
                return capture.timestamp(i);
              }));
  for (std::size_t i = 0; i < capture.size(); ++i) {
    observe_at(net::PcapRecord::of(capture.packet(i), capture.timestamp(i)),
               next_index_);
    ++next_index_;
  }
  publish_metrics();
}

void PassiveRttEstimator::consume(const std::vector<net::PcapRecord>& records) {
  reserve_for(records.size(),
              most_live_anchors(records.size(), reach(), [&](std::size_t i) {
                return records[i].timestamp;
              }));
  for (const net::PcapRecord& rec : records) {
    observe_at(rec, next_index_);
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

  // Group samples by half-flow once: each flow's endpoint strings, its
  // "from > to" label and the text its samples open with are rendered once,
  // and its RTT list is sized once from its sample count.
  struct Flow {
    std::string label;
    std::string head;  ///< ',' and a sample object up to its anchor_ns value
    std::vector<double> rtts;
    std::size_t samples = 0;
  };
  std::vector<Flow> flows;
  std::vector<std::uint32_t> flow_of(flows_.size(), kNoFlow);  // half-flow
  for (const std::uint32_t hf_index : sample_flows_) {
    std::uint32_t& f = flow_of[hf_index];
    if (f == kNoFlow) {  // endpoint strings are digits, dots and a colon
      const HalfFlow& hf = flows_[hf_index];
      const std::string from = hf.src.to_string();
      const std::string to = hf.dst.to_string();
      f = static_cast<std::uint32_t>(flows.size());
      flows.push_back({from + " > " + to,
                       ",{\"from\":\"" + from + "\",\"to\":\"" + to +
                           "\",\"anchor_ns\":",
                       {}});
    }
    ++flows[f].samples;
  }
  for (Flow& f : flows) f.rtts.reserve(f.samples);
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    flows[flow_of[sample_flows_[i]]].rtts.push_back(
        static_cast<double>(samples_[i].rtt.ns()));
  }
  // Flow summaries are ordered by label string, so the serialization never
  // depends on first-sight order ("10.0.0.10:80" < "10.0.0.9:80").
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
    // Extremes from one linear pass, the median by selection: no sort.
    std::vector<double>& rtts = by_label[i]->rtts;
    const auto [lo, hi] = std::minmax_element(rtts.begin(), rtts.end());
    const double min_rtt = *lo;
    const double max_rtt = *hi;
    out += i == 0 ? "{\"flow\":\"" : ",{\"flow\":\"";
    escape_to(out, by_label[i]->label);
    out += "\",\"samples\":";
    integer_to(out, static_cast<std::int64_t>(rtts.size()));
    out += ",\"min_rtt_ns\":";
    integer_to(out, static_cast<std::int64_t>(min_rtt));
    out += ",\"median_rtt_ns\":";
    integer_to(out,
               static_cast<std::int64_t>(stats::quantile_select(rtts, 0.5)));
    out += ",\"max_rtt_ns\":";
    integer_to(out, static_cast<std::int64_t>(max_rtt));
    out += '}';
  }

  // A sample is its flow's head (without the comma when first) and a tail,
  // both rendered into one stack buffer: one append per sample.
  out += "],\"samples\":[";
  for (std::size_t i = 0; i < samples_.size(); ++i) {
    const PassiveSample& s = samples_[i];
    const std::string& head = flows[flow_of[sample_flows_[i]]].head;
    const std::size_t skip = i == 0 ? 1 : 0;
    // A head holds two endpoints of at most 21 chars and 32 of literals; a
    // tail three integers of at most 20 chars and 40 of literals.
    char text[256];
    char* p = text + head.size() - skip;
    std::memcpy(text, head.data() + skip, head.size() - skip);
    p = put_integer(p, s.anchor_at.ns_since_epoch());
    p = put_literal(p, ",\"rtt_ns\":");
    p = put_integer(p, s.rtt.ns());
    p = put_literal(p, ",\"tsval\":");
    p = put_integer(p, s.tsval);
    p = s.first_on_flow ? put_literal(p, ",\"first\":true}")
                        : put_literal(p, ",\"first\":false}");
    out.append(text, p);
  }
  out += "]}";
  return out;
}

}  // namespace bnm::passive

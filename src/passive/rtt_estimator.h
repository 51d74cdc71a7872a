// Passive RTT estimation from TCP timestamp echoes — the simulator's pping.
//
// Every other estimator in the repo is *active*: it injects probes and times
// them. This one watches traffic that already exists. At any capture point
// (client NIC, switch span port, server NIC) each TCP segment carrying an
// RFC 7323 timestamp option anchors its TSval at first sight; when a segment
// in the *reverse* direction echoes that TSval in its TSecr, the gap between
// the two observations is one round trip as seen from the tap — including
// the receiver's delayed-ACK wait, exactly what a real pping reports.
//
// The matcher follows the discipline of pollere's pping/DlyLoc:
//   * first-seen anchoring: at coarse timestamp clocks (1 ms granule) many
//     segments share a TSval; only the first occurrence anchors, so the
//     sample spans from the earliest segment — later duplicates are counted,
//     not matched (RFC 7323 echoes the earliest left-edge segment anyway);
//   * one sample per anchor: cumulative ACKs repeat TSecr values; only the
//     first echo yields a sample;
//   * Karn's-rule analogue: a data segment whose sequence range was already
//     covered (retransmission, zero-window probe) poisons its TSval anchor —
//     an echo can no longer be attributed to a unique transmission, so no
//     sample is emitted for it;
//   * unidirectional visibility degrades to zero samples (counted as
//     unmatched echoes), never to wrong ones.
//
// Observation timestamps are quantized (default 1 µs — libpcap fidelity)
// before matching, so a live tap and the same capture re-read from a pcap
// file produce byte-identical reports; scripts/check.sh gates on this.
//
// The matcher reads one flat header record per observation (net::PcapRecord:
// capture time, 4-tuple, flags, seq, TSval/TSecr, payload length — DlyLoc's
// field set). A pcap replay hands over the records PcapReader::read parsed;
// a live tap or observe() fills one record from each packet. There is one
// matching path.
//
// Storage is flat, so the per-packet path does not touch the allocator once
// the tables have grown: half-flows are numbered in order of first sight in
// one vector, every anchor of every half-flow is appended to one vector, and
// one open-addressing table keyed by (half-flow number, TSval) indexes the
// anchors. Both consume() overloads size these tables once before the
// loop: the sample vectors for one sample per observation, the anchor vector
// and its slots for the most anchors the scan can hold at once (those of
// the densest window-long stretch, plus one sweep interval). So a
// time-ordered scan never allocates for these tables in its loop. The
// eviction sweep compacts the contiguous anchor vector and re-indexes it
// into slots for its survivors plus one sweep interval, so on a capture
// longer than the window a sweep costs what the window holds, not what the
// capture holds; it is skipped outright while no stored anchor is older
// than the window.
#pragma once

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "net/address.h"
#include "net/capture.h"
#include "net/packet.h"
#include "net/pcap_reader.h"
#include "sim/time.h"

namespace bnm::passive {

/// One passively measured round trip. `from` sent the anchored TSval;
/// the echo came back from `to`. Indices are observation ordinals (capture
/// row / pcap record number) so callers can join samples back to
/// ground-truth columns.
struct PassiveSample {
  net::Endpoint from;
  net::Endpoint to;
  sim::TimePoint anchor_at;  ///< quantized observation clock
  sim::TimePoint echo_at;
  sim::Duration rtt;
  std::uint32_t tsval = 0;
  std::size_t anchor_index = 0;
  std::size_t echo_index = 0;
  bool first_on_flow = false;  ///< d1-style: first sample for (from, to)
};

/// Cumulative matcher tallies (also published as `passive.*` metrics).
struct PassiveCounters {
  std::uint64_t packets = 0;           ///< observations scanned
  std::uint64_t ts_packets = 0;        ///< carried a timestamp option
  std::uint64_t anchors = 0;           ///< new TSval anchors stored
  std::uint64_t duplicate_tsvals = 0;  ///< coarse-clock repeats (not anchored)
  std::uint64_t retransmit_poisoned = 0;  ///< anchors killed by Karn analogue
  std::uint64_t suppressed_samples = 0;   ///< echoes of poisoned anchors
  std::uint64_t samples = 0;
  std::uint64_t unmatched_echoes = 0;  ///< no anchor (unidirectional/evicted)
  std::uint64_t evicted = 0;           ///< anchors aged out of the window
  std::uint64_t half_flows = 0;        ///< directional (src,dst) pairs seen
};

class PassiveRttEstimator {
 public:
  struct Config {
    /// Observation timestamps are floored to this quantum before matching.
    /// The default matches classic libpcap's microsecond resolution, which
    /// is what makes live-tap and offline-pcap runs byte-identical.
    sim::Duration timestamp_quantum = sim::Duration::micros(1);
    /// Anchors older than this are evicted by the sweep that runs on every
    /// 4096th observation (bounds memory on long captures; pping's flow
    /// timeout), matched or not. A sweep costs nothing while every stored
    /// anchor is inside the window.
    sim::Duration anchor_window = sim::Duration::seconds(10);
  };

  PassiveRttEstimator() : PassiveRttEstimator(Config{}) {}
  explicit PassiveRttEstimator(Config config) : config_{config} {}

  /// Feed one observation (live-tap incremental use). Costs one half-flow
  /// lookup and at most two anchor-table probes; it allocates only when a
  /// table or the sample vector grows (geometrically).
  void observe(const net::Packet& pkt, sim::TimePoint at);

  /// Scan a whole capture (any tap point, both directions interleaved).
  /// The anchor, slot and sample tables are sized once up front (see the
  /// file comment), so a time-ordered scan allocates only when the
  /// half-flow table grows.
  void consume(const net::PacketCapture& capture);
  /// Scan records parsed from a pcap file (the offline path); the tables
  /// are sized once as above.
  void consume(const std::vector<net::PcapRecord>& records);

  const std::vector<PassiveSample>& samples() const { return samples_; }
  const PassiveCounters& counters() const { return counters_; }
  const Config& config() const { return config_; }

  /// Canonical machine report: a deterministic function of the observed
  /// packet stream (counters, per-flow summaries, every sample in
  /// microseconds). Streamed into one string, no obs::json::Value tree;
  /// the bytes are pinned by a literal-bytes test, and the live-vs-offline
  /// byte-identity gate compares these strings. Samples are grouped by
  /// half-flow number; each flow's min and max come from one linear pass
  /// and its median from stats::quantile_select (the interpolation of
  /// quantile_sorted), so no flow's RTTs are sorted.
  std::string report_json(const std::string& label) const;

  /// Fold counter deltas since the last call into the `passive.*` metrics
  /// registry instruments. Called by consume(); incremental observe() users
  /// call it at a quiescent point.
  void publish_metrics();

 private:
  static constexpr std::uint32_t kNoFlow =
      std::numeric_limits<std::uint32_t>::max();

  /// Directional half-flow: all packets src -> dst. Numbered by its index
  /// in flows_, in order of first sight; never removed.
  struct HalfFlow {
    net::Endpoint src;
    net::Endpoint dst;
    std::uint32_t reverse = kNoFlow;  ///< the dst -> src half-flow, once seen
    std::uint32_t max_seq_end = 0;    ///< highest sequence-space byte sent
    bool seen_seq = false;
    bool sampled = false;  ///< a sample has been emitted for this direction
  };
  /// The first sight of `tsval` on half-flow `flow`.
  struct Anchor {
    sim::TimePoint at;
    std::size_t index = 0;
    std::uint32_t flow = 0;
    std::uint32_t tsval = 0;
    bool matched = false;
    bool poisoned = false;
  };

  /// The one matching path: observation number `index`, whose time is
  /// `rec.timestamp` and whose on-wire payload length is `rec.payload_len`.
  void observe_at(const net::PcapRecord& rec, std::size_t index);
  /// Room for a scan of `observations` that holds at most `live_anchors`
  /// of its own anchors at once, without an allocation: each
  /// observation samples at most once, so the sample vectors get
  /// `observations` spare capacity, the anchor vector `live_anchors`, and
  /// the anchor slots a power of two at most half full with all of them.
  void reserve_for(std::size_t observations, std::size_t live_anchors);
  /// How far back a sweep can keep an anchor: the window, plus one quantum
  /// because the sweep compares floored times.
  sim::Duration reach() const {
    return config_.anchor_window + config_.timestamp_quantum;
  }
  /// The half-flow src -> dst, numbered on first sight.
  std::uint32_t flow_index(const net::Endpoint& src, const net::Endpoint& dst);
  /// The flow_slots_ entry of src -> dst, or the free one where it belongs.
  std::uint32_t& flow_slot(const net::Endpoint& src, const net::Endpoint& dst);
  /// The anchor_slots_ entry of (flow, tsval), or the free one where it
  /// belongs.
  std::uint32_t& anchor_slot(std::uint32_t flow, std::uint32_t tsval);
  /// Index every anchor afresh in `capacity` slots (a power of two).
  void reindex_anchors(std::size_t capacity);
  void maybe_evict(sim::TimePoint now);

  Config config_;
  std::vector<HalfFlow> flows_;
  /// Open-addressing index over flows_: half-flow number + 1, 0 when free.
  std::vector<std::uint32_t> flow_slots_;
  std::vector<Anchor> anchors_;  ///< every stored anchor, in order of sight
  /// Open-addressing index over anchors_, keyed by (half-flow, TSval):
  /// position + 1, 0 when free. Linear probing, at most half full.
  std::vector<std::uint32_t> anchor_slots_;
  /// No stored anchor is older than this, so a sweep whose cutoff is not
  /// past it has nothing to evict.
  sim::TimePoint oldest_anchor_ =
      sim::TimePoint::from_ns(std::numeric_limits<std::int64_t>::max());
  std::vector<PassiveSample> samples_;
  std::vector<std::uint32_t> sample_flows_;  ///< half-flow of each sample
  PassiveCounters counters_;
  PassiveCounters published_;  ///< high-water marks already in the registry
  std::size_t next_index_ = 0;
};

}  // namespace bnm::passive

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
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
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
    /// Anchors unmatched for longer than this are evicted (bounds memory on
    /// long captures; pping's flow timeout).
    sim::Duration anchor_window = sim::Duration::seconds(10);
    /// consume(PacketCapture): match on the jitter-free true_time column
    /// instead of the capture clock (ground-truth mode for calibration).
    bool use_true_time = false;
  };

  PassiveRttEstimator() : PassiveRttEstimator(Config{}) {}
  explicit PassiveRttEstimator(Config config) : config_{config} {}

  /// Feed one observation (live-tap incremental use). `wire_payload_len` is
  /// the on-wire payload size (may exceed pkt.payload.size() under snap-len
  /// truncation); it drives the retransmission detector's sequence math.
  void observe(const net::Packet& pkt, sim::TimePoint at,
               std::size_t wire_payload_len);
  void observe(const net::Packet& pkt, sim::TimePoint at) {
    observe(pkt, at, pkt.payload.size());
  }

  /// Scan a whole capture (any tap point, both directions interleaved).
  void consume(const net::PacketCapture& capture);
  /// Scan records parsed from a pcap file (the offline path).
  void consume(const std::vector<net::PcapRecord>& records);

  const std::vector<PassiveSample>& samples() const { return samples_; }
  const PassiveCounters& counters() const { return counters_; }
  const Config& config() const { return config_; }

  /// Canonical machine report: a deterministic function of the observed
  /// packet stream (counters, per-flow summaries, every sample in
  /// microseconds). Streamed into one string, no obs::json::Value tree;
  /// the bytes are pinned by a literal-bytes test, and the live-vs-offline
  /// byte-identity gate compares these strings.
  std::string report_json(const std::string& label) const;

  /// Fold counter deltas since the last call into the `passive.*` metrics
  /// registry instruments. Called by consume(); incremental observe() users
  /// call it at a quiescent point.
  void publish_metrics();

 private:
  /// Directional half-flow: all packets src -> dst.
  struct HalfFlowKey {
    net::Endpoint src;
    net::Endpoint dst;
    bool operator==(const HalfFlowKey&) const = default;
  };
  struct HalfFlowKeyHash {
    std::size_t operator()(const HalfFlowKey& k) const {
      const std::size_t a = std::hash<net::Endpoint>{}(k.src);
      const std::size_t b = std::hash<net::Endpoint>{}(k.dst);
      return a ^ (b + 0x9e3779b97f4a7c15ULL + (a << 6) + (a >> 2));
    }
  };
  struct Anchor {
    sim::TimePoint at;
    std::size_t index = 0;
    bool matched = false;
    bool poisoned = false;
  };
  struct HalfFlow {
    std::unordered_map<std::uint32_t, Anchor> anchors;
    std::uint32_t max_seq_end = 0;  ///< highest sequence-space byte sent
    bool seen_seq = false;
    bool sampled = false;  ///< a sample has been emitted for this direction
  };

  void observe_at(const net::Packet& pkt, sim::TimePoint at,
                  std::size_t wire_payload_len, std::size_t index);
  void maybe_evict(sim::TimePoint now);

  Config config_;
  std::unordered_map<HalfFlowKey, HalfFlow, HalfFlowKeyHash> flows_;
  std::vector<PassiveSample> samples_;
  PassiveCounters counters_;
  PassiveCounters published_;  ///< high-water marks already in the registry
  std::size_t next_index_ = 0;
};

}  // namespace bnm::passive

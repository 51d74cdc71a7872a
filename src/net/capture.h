// Packet capture at the NIC: the simulator's WinDump/tcpdump.
//
// The capture tap sits where libpcap sits — between the host's network
// stack and the wire — and records a timestamped copy of every packet in
// both directions. Ground-truth timestamps tN_s / tN_r in the paper's
// Eq. (1) come from here.
//
// A configurable timestamping jitter models the capture inaccuracy the
// paper cites (software capturers are accurate to ~0.3 ms at best).
//
// Storage is structure-of-arrays: the scan-hot fields (true_time,
// timestamp, direction) each live in their own dense column, with the
// heavyweight Packet in a side column. Window extraction
// (first_index_at_or_after + a linear sweep) binary-searches the packed
// true_time column and then reads packet(i) for every row inside the
// window. Columns are arena-backed when the capture is built under an
// installed sim::Arena scope.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/arena.h"
#include "sim/simulation.h"

namespace bnm::net {

enum class CaptureDirection : std::uint8_t {
  kOutbound,  ///< host -> wire
  kInbound,   ///< wire -> host
};

class PacketCapture {
 public:
  struct Config {
    /// Uniform [0, jitter) added to each record's timestamp.
    sim::Duration timestamp_jitter = sim::Duration::zero();
    std::string name = "pcap";
    bool enabled = true;
  };

  explicit PacketCapture(sim::Simulation& sim)
      : PacketCapture(sim, Config{}) {}
  PacketCapture(sim::Simulation& sim, Config config);

  void record(CaptureDirection direction, const Packet& packet);

  std::size_t size() const { return true_time_.size(); }
  bool empty() const { return true_time_.empty(); }
  void clear();
  /// Pre-size every column (e.g. from the experiment's repetition plan) so
  /// recording never reallocates mid-run.
  void reserve(std::size_t n);

  // ---- per-column accessors ----
  sim::TimePoint timestamp(std::size_t i) const { return timestamp_[i]; }
  sim::TimePoint true_time(std::size_t i) const { return true_time_[i]; }
  CaptureDirection direction(std::size_t i) const { return direction_[i]; }
  /// The captured packet: its payload is a shared view of the in-flight
  /// packet's buffer, never a byte copy, so a long capture costs
  /// O(records), not O(bytes).
  const Packet& packet(std::size_t i) const { return packets_[i]; }

  /// Index of the first record with true_time >= t (== size() if none).
  /// Records are appended at the current simulated instant, so true_time is
  /// non-decreasing and the lookup is a binary search over the packed
  /// true_time column — window extraction over a long capture is
  /// O(log n + window) instead of a full scan.
  std::size_t first_index_at_or_after(sim::TimePoint t) const;

 private:
  template <typename T>
  using Column = std::vector<T, sim::ArenaAllocator<T>>;

  sim::Simulation& sim_;
  Config config_;
  sim::Rng rng_;
  // SoA columns, index-aligned: row i of the capture is
  // (timestamp_[i], true_time_[i], direction_[i], packets_[i]).
  Column<sim::TimePoint> timestamp_;
  Column<sim::TimePoint> true_time_;
  Column<CaptureDirection> direction_;
  Column<Packet> packets_;
};

}  // namespace bnm::net

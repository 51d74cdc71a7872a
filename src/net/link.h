// Point-to-point duplex link with bandwidth, propagation delay, FIFO
// queueing, and optional random loss.
//
// Each direction models a transmitter that serializes one packet at a time
// (wire_size * 8 / rate) and a propagation pipe (fixed delay). Packets
// queued while the transmitter is busy wait their turn, which yields correct
// store-and-forward timing for multi-packet exchanges (throughput
// experiments depend on this).
#pragma once

#include <cstdint>
#include <functional>
#include <list>
#include <optional>
#include <string>

#include "net/loss_process.h"
#include "net/packet.h"
#include "sim/arena.h"
#include "sim/simulation.h"

namespace bnm::net {

/// Anything that can accept a delivered packet (hosts, switches). Packets
/// are handed over by value and moved the whole way down the pipeline —
/// with refcounted payloads that is a metadata move, no byte copies.
class PacketSink {
 public:
  virtual ~PacketSink() = default;
  virtual void handle_packet(Packet packet) = 0;
};

/// Which end of a duplex link a component sits on.
enum class LinkSide { kA, kB };

class Link {
 public:
  using Side = LinkSide;  ///< compat alias; call sites say Link::Side::kA

  struct Config {
    double bandwidth_bps = 100e6;  ///< 100 Mbps Fast Ethernet (paper testbed)
    sim::Duration propagation = sim::Duration::micros(5);
    double loss_probability = 0.0;  ///< per-packet independent drop
    /// Bursty (Gilbert-Elliott) loss; takes precedence over
    /// loss_probability when set. Shared chain across both directions.
    std::optional<GilbertElliottConfig> bursty_loss;
    std::size_t queue_limit_packets = 1000;  ///< tail-drop beyond this
    std::string name = "link";
  };

  Link(sim::Simulation& sim, Config config);

  /// `sink` receives packets arriving at `side`.
  void attach(Side side, PacketSink* sink);

  /// Enqueue a packet for transmission from `side` toward the other side.
  void transmit(Side side, Packet packet);

  const Config& config() const { return config_; }
  std::uint64_t drops(Side side) const;
  std::uint64_t delivered(Side side) const;

  /// Serialization delay of `packet` at this link's rate.
  sim::Duration serialization_delay(const Packet& packet) const;

 private:
  struct Direction {
    PacketSink* sink = nullptr;        ///< receiver at the far end
    sim::TimePoint tx_free;            ///< transmitter busy until
    std::size_t in_flight = 0;         ///< queued or serializing
    std::uint64_t drops = 0;
    std::uint64_t delivered = 0;
  };

  Direction& dir(Side from) { return from == Side::kA ? a_to_b_ : b_to_a_; }
  const Direction& dir(Side from) const {
    return from == Side::kA ? a_to_b_ : b_to_a_;
  }

  sim::Simulation& sim_;
  Config config_;
  sim::Rng rng_;
  LossProcess loss_;
  Direction a_to_b_;
  Direction b_to_a_;
  /// In-flight packets parked until their arrival event fires, in
  /// arena-backed nodes so the delivery closure ([this, sink, dir, iter])
  /// stays within the scheduler's inline storage — no per-packet heap trip.
  std::list<Packet, sim::ArenaAllocator<Packet>> in_flight_;
};

}  // namespace bnm::net

// Egress network-emulation qdisc, modelled on Linux netem.
//
// The paper's testbed adds "an additional delay of 50 ms on the server side
// to simulate the Internet environment"; this is the component that does it.
// Constant delay preserves packet order (as netem does for a fixed delay);
// optional jitter re-orders only if `allow_reorder` is set, otherwise each
// departure is clamped to be no earlier than the previous one.
//
// Like its Linux namesake, netem can also drop (i.i.d. or Gilbert-Elliott
// bursty, via the shared LossProcess primitive) and duplicate packets; both
// happen before the delay stage, matching the kernel qdisc's order. All
// stochastic knobs default off and draw nothing from the RNG when disabled.
#pragma once

#include <cstdint>
#include <functional>
#include <optional>
#include <string>

#include "net/link.h"
#include "net/loss_process.h"
#include "net/packet.h"
#include "sim/simulation.h"

namespace bnm::net {

class DelayEmulator {
 public:
  struct Config {
    sim::Duration delay = sim::Duration::zero();
    sim::Duration jitter = sim::Duration::zero();  ///< uniform [0, jitter)
    bool allow_reorder = false;
    double loss_probability = 0.0;  ///< i.i.d. per-packet drop
    /// Bursty (Gilbert-Elliott) loss; takes precedence over
    /// loss_probability when set.
    std::optional<GilbertElliottConfig> bursty_loss;
    double duplicate_probability = 0.0;
    std::string name = "netem";
  };

  DelayEmulator(sim::Simulation& sim, Config config);

  /// The downstream stage packets are released to.
  void set_output(std::function<void(Packet)> output) {
    output_ = std::move(output);
  }

  void enqueue(Packet packet);

  const Config& config() const { return config_; }
  void set_delay(sim::Duration d) { config_.delay = d; }
  std::uint64_t drops() const { return drops_; }
  std::uint64_t duplicates() const { return duplicates_; }

 private:
  void schedule_release(Packet packet);

  sim::Simulation& sim_;
  Config config_;
  sim::Rng rng_;
  LossProcess loss_;
  std::function<void(Packet)> output_;
  sim::TimePoint last_release_;
  std::uint64_t drops_ = 0;
  std::uint64_t duplicates_ = 0;
  // A delayed packet rides in its release event's closure; release order
  // is set by the event time (and last_release_ clamping) alone.
};

}  // namespace bnm::net

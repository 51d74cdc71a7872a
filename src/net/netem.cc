#include "net/netem.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bnm::net {

DelayEmulator::DelayEmulator(sim::Simulation& sim, Config config)
    : sim_{sim}, config_{std::move(config)}, rng_{sim.rng_for(config_.name)} {
  loss_ = config_.bursty_loss ? LossProcess::bursty(*config_.bursty_loss)
                              : LossProcess::iid(config_.loss_probability);
}

void DelayEmulator::enqueue(Packet packet) {
  assert(output_ && "DelayEmulator has no output stage");
  // netem order: loss, then duplication, then delay/jitter.
  if (loss_.enabled() && loss_.should_drop(rng_)) {
    ++drops_;
    if (sim_.trace().enabled()) {
      sim_.trace().emit(sim_.now(), config_.name,
                        "loss " + packet.to_string());
    }
    return;
  }
  if (config_.duplicate_probability > 0.0 &&
      rng_.chance(config_.duplicate_probability)) {
    ++duplicates_;
    if (sim_.trace().enabled()) {
      sim_.trace().emit(sim_.now(), config_.name,
                        "duplicate " + packet.to_string());
    }
    schedule_release(packet);  // the copy; the original follows
  }
  schedule_release(std::move(packet));
}

void DelayEmulator::schedule_release(Packet packet) {
  sim::Duration d = config_.delay;
  if (!config_.jitter.is_zero()) {
    d += rng_.uniform_ms(0.0, config_.jitter.ms_f());
  }
  sim::TimePoint release = sim_.now() + d;
  if (!config_.allow_reorder) {
    release = std::max(release, last_release_);
    last_release_ = release;
  }
  if (sim_.trace().enabled()) {
    sim_.trace().emit_span(
        sim_.now(), release - sim_.now(), "netem",
        "delay " + packet.to_string(),
        {{"packet_id", static_cast<std::int64_t>(packet.id)}});
  }
  post_hop(sim_.scheduler(), release,
           [this, pkt = std::move(packet)]() mutable {
             output_(std::move(pkt));
           });
}

}  // namespace bnm::net

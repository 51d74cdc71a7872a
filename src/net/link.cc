#include "net/link.h"

#include <algorithm>
#include <cassert>
#include <utility>

namespace bnm::net {

Link::Link(sim::Simulation& sim, Config config)
    : sim_{sim}, config_{std::move(config)}, rng_{sim.rng_for(config_.name)} {
  assert(config_.bandwidth_bps > 0);
  loss_ = config_.bursty_loss ? LossProcess::bursty(*config_.bursty_loss)
                              : LossProcess::iid(config_.loss_probability);
}

void Link::attach(Side side, PacketSink* sink) {
  // `sink` is the receiver *on* `side`; store it in the direction that
  // delivers toward that side.
  Direction& d = side == Side::kA ? b_to_a_ : a_to_b_;
  d.sink = sink;
}

sim::Duration Link::serialization_delay(const Packet& packet) const {
  const double bits = static_cast<double>(packet.wire_size()) * 8.0;
  return sim::Duration::from_seconds_f(bits / config_.bandwidth_bps);
}

void Link::transmit(Side side, Packet packet) {
  Direction& d = dir(side);
  assert(d.sink && "link side not attached");

  if (d.in_flight >= config_.queue_limit_packets) {
    ++d.drops;
    if (sim_.trace().enabled()) {
      sim_.trace().emit(sim_.now(), config_.name,
                        "tail-drop " + packet.to_string());
    }
    return;
  }
  if (loss_.enabled() && loss_.should_drop(rng_)) {
    ++d.drops;
    if (sim_.trace().enabled()) {
      sim_.trace().emit(sim_.now(), config_.name,
                        "loss " + packet.to_string());
    }
    return;
  }

  const sim::TimePoint start = std::max(sim_.now(), d.tx_free);
  const sim::TimePoint tx_done = start + serialization_delay(packet);
  d.tx_free = tx_done;
  ++d.in_flight;

  const sim::TimePoint arrive = tx_done + config_.propagation;
  if (sim_.trace().enabled()) {
    // One hop span per packet: [queued, delivered) = queueing +
    // serialization + propagation.
    sim_.trace().emit_span(
        sim_.now(), arrive - sim_.now(), config_.name,
        "hop " + packet.to_string(),
        {{"packet_id", static_cast<std::int64_t>(packet.id)},
         {"wire_bytes", static_cast<std::int64_t>(packet.wire_size())}});
  }
  post_hop(sim_.scheduler(), arrive,
           [sink = d.sink, dp = &d, pkt = std::move(packet)]() mutable {
             --dp->in_flight;
             ++dp->delivered;
             sink->handle_packet(std::move(pkt));
           });
}

std::uint64_t Link::drops(Side side) const { return dir(side).drops; }

std::uint64_t Link::delivered(Side side) const { return dir(side).delivered; }

}  // namespace bnm::net

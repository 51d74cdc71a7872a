#include "net/switch_fabric.h"

#include <utility>

namespace bnm::net {

SwitchFabric::SwitchFabric(sim::Simulation& sim, Config config)
    : sim_{sim}, config_{std::move(config)} {}

std::size_t SwitchFabric::add_port(Link* link, Link::Side switch_side) {
  link->attach(switch_side, this);
  ports_.push_back(PortRef{link, switch_side});
  return ports_.size() - 1;
}

void SwitchFabric::learn(IpAddress ip, std::size_t port) {
  table_[ip] = port;
}

void SwitchFabric::handle_packet(Packet packet) {
  const auto it = table_.find(packet.dst.ip);
  if (it == table_.end()) {
    ++dropped_no_route_;
    if (sim_.trace().enabled()) {
      sim_.trace().emit(sim_.now(), config_.name,
                        "no route for " + packet.to_string());
    }
    return;
  }
  const PortRef out = ports_.at(it->second);
  ++forwarded_;
  post_hop(sim_.scheduler(), sim_.now() + config_.forwarding_latency,
           [out, pkt = std::move(packet)]() mutable {
             out.link->transmit(out.side, std::move(pkt));
           });
}

}  // namespace bnm::net

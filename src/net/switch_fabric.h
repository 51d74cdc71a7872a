// Store-and-forward Ethernet-style switch connecting hosts (Fig. 2 testbed).
//
// Forwarding is by destination IP through a static table populated when
// hosts are plugged in (the simulated LAN needs no ARP). A small forwarding
// latency models the switch's lookup + fabric transit.
#pragma once

#include <cstdint>
#include <string>
#include <unordered_map>
#include <vector>

#include "net/link.h"
#include "sim/simulation.h"

namespace bnm::net {

class SwitchFabric : public PacketSink {
 public:
  struct Config {
    sim::Duration forwarding_latency = sim::Duration::micros(3);
    std::string name = "switch";
  };

  explicit SwitchFabric(sim::Simulation& sim) : SwitchFabric(sim, Config{}) {}
  SwitchFabric(sim::Simulation& sim, Config config);

  /// Plug a link into the next free port; the switch sits on `switch_side`
  /// of that link. Returns the port index.
  std::size_t add_port(Link* link, Link::Side switch_side);

  /// Bind a destination address to a port (which host lives where).
  void learn(IpAddress ip, std::size_t port);

  // PacketSink: a packet arrived from one of the attached links.
  void handle_packet(Packet packet) override;

  std::uint64_t forwarded() const { return forwarded_; }
  std::uint64_t dropped_no_route() const { return dropped_no_route_; }

 private:
  struct PortRef {
    Link* link = nullptr;
    Link::Side side = Link::Side::kA;
  };

  sim::Simulation& sim_;
  Config config_;
  std::vector<PortRef> ports_;
  std::unordered_map<IpAddress, std::size_t> table_;
  std::uint64_t forwarded_ = 0;
  std::uint64_t dropped_no_route_ = 0;
  // A packet transiting the fabric rides in its forwarding event's closure.
};

}  // namespace bnm::net

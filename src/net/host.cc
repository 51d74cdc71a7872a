#include "net/host.h"

#include <cassert>
#include <utility>

namespace bnm::net {

namespace {
std::uint64_t name_hash(const std::string& s) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  for (unsigned char c : s) {
    h ^= c;
    h *= 0x100000001b3ull;
  }
  return h;
}
}  // namespace

Host::Host(sim::Simulation& sim, Config config)
    : sim_{sim},
      config_{std::move(config)},
      capture_{sim, [&] {
                 auto c = config_.capture;
                 if (c.name == "pcap") c.name = config_.name + "/pcap";
                 return c;
               }()},
      isn_counter_{static_cast<std::uint32_t>(name_hash(config_.name) & 0xffff)},
      id_base_{name_hash(config_.name) << 20} {
  if (config_.egress_faults) {
    auto plan = *config_.egress_faults;
    if (plan.name == "faults") plan.name = config_.name + "/egress-faults";
    egress_faults_ = std::make_unique<FaultInjector>(sim_, std::move(plan));
    egress_faults_->set_output([this](Packet p) {
      assert(link_ && "host not attached to a link");
      link_->transmit(link_side_, std::move(p));
    });
  }
  if (config_.egress_netem) {
    netem_ = std::make_unique<DelayEmulator>(sim_, *config_.egress_netem);
    netem_->set_output([this](Packet p) {
      if (egress_faults_) {
        egress_faults_->handle_packet(std::move(p));
        return;
      }
      assert(link_ && "host not attached to a link");
      link_->transmit(link_side_, std::move(p));
    });
  }
  if (config_.ingress_faults) {
    auto plan = *config_.ingress_faults;
    if (plan.name == "faults") plan.name = config_.name + "/ingress-faults";
    ingress_faults_ = std::make_unique<FaultInjector>(sim_, std::move(plan));
    ingress_faults_->set_output(
        [this](Packet p) { deliver_from_wire(std::move(p)); });
  }
}

Host::~Host() {
  for (auto& [tuple, conn] : connections_) {
    conn->set_callbacks({});
  }
}

void Host::attach_link(Link* link, LinkSide host_side) {
  link_ = link;
  link_side_ = host_side;
  link->attach(host_side, this);
}

std::shared_ptr<TcpConnection> Host::tcp_connect(Endpoint remote,
                                                 TcpCallbacks cbs) {
  const Endpoint local{config_.ip, allocate_ephemeral_port()};
  const FourTuple tuple{local, remote};
  auto conn = std::make_shared<TcpConnection>(*this, tuple, config_.tcp,
                                              /*initiator=*/true, next_isn());
  conn->set_callbacks(std::move(cbs));
  connections_.emplace(tuple, conn);
  conn->start_active_open();
  return conn;
}

void Host::tcp_listen(Port port, TcpListener::AcceptCallback on_accept) {
  listeners_.emplace(port, TcpListener{port, std::move(on_accept)});
}

void Host::tcp_unlisten(Port port) { listeners_.erase(port); }

std::shared_ptr<UdpSocket> Host::udp_open(Port local_port,
                                          UdpSocket::ReceiveCallback on_receive) {
  auto sock = std::make_shared<UdpSocket>(*this, local_port, std::move(on_receive));
  udp_sockets_[local_port] = sock;
  return sock;
}

std::shared_ptr<UdpSocket> Host::udp_open(UdpSocket::ReceiveCallback on_receive) {
  return udp_open(allocate_ephemeral_port(), std::move(on_receive));
}

void Host::udp_close(Port local_port) { udp_sockets_.erase(local_port); }

void Host::send_packet(Packet packet) {
  packet.id = next_packet_id();
  // Stack processing, then the capture tap at the NIC, then netem/wire.
  post_hop(sim_.scheduler(), sim_.now() + config_.stack_delay,
           [this, pkt = std::move(packet)]() mutable {
             capture_.record(CaptureDirection::kOutbound, pkt);
             if (sim_.trace().enabled()) {
               sim_.trace().emit(sim_.now(), config_.name,
                                 "tx " + pkt.to_string());
             }
             wire_out(std::move(pkt));
           });
}

void Host::wire_out(Packet packet) {
  if (netem_) {
    netem_->enqueue(std::move(packet));
    return;
  }
  if (egress_faults_) {
    egress_faults_->handle_packet(std::move(packet));
    return;
  }
  assert(link_ && "host not attached to a link");
  link_->transmit(link_side_, std::move(packet));
}

Port Host::allocate_ephemeral_port() {
  const Port p = next_ephemeral_;
  next_ephemeral_ = next_ephemeral_ == 65535 ? 49152 : next_ephemeral_ + 1;
  return p;
}

std::uint32_t Host::next_isn() {
  isn_counter_ += 64000;
  return isn_counter_;
}

void Host::deregister_connection(const FourTuple& tuple) {
  connections_.erase(tuple);
}

void Host::handle_packet(Packet packet) {
  // Faults on the last path segment hit before the NIC: a packet dropped
  // there never reaches the capture tap.
  if (ingress_faults_) {
    ingress_faults_->handle_packet(std::move(packet));
    return;
  }
  deliver_from_wire(std::move(packet));
}

void Host::deliver_from_wire(Packet packet) {
  capture_.record(CaptureDirection::kInbound, packet);
  if (sim_.trace().enabled()) {
    sim_.trace().emit(sim_.now(), config_.name, "rx " + packet.to_string());
  }
  if (packet.corrupted) {
    // The NIC/stack verifies checksums after the tap: tcpdump sees the
    // frame, the transport never does.
    ++checksum_drops_;
    if (sim_.trace().enabled()) {
      sim_.trace().emit(sim_.now(), config_.name,
                        "checksum-drop " + packet.to_string());
    }
    return;
  }
  post_hop(sim_.scheduler(), sim_.now() + config_.stack_delay,
           [this, pkt = std::move(packet)] { demux(pkt); });
}

void Host::demux(const Packet& packet) {
  if (packet.dst.ip != config_.ip) return;  // not ours; NIC would drop
  switch (packet.protocol) {
    case Protocol::kTcp:
      handle_tcp(packet);
      break;
    case Protocol::kUdp:
      handle_udp(packet);
      break;
  }
}

void Host::handle_tcp(const Packet& packet) {
  const FourTuple tuple{packet.dst, packet.src};
  if (const auto it = connections_.find(tuple); it != connections_.end()) {
    // Keep the connection alive through the callback even if it
    // deregisters itself while processing this segment.
    const auto conn = it->second;
    conn->on_segment(packet);
    return;
  }
  if (packet.flags.syn && !packet.flags.ack) {
    if (const auto lit = listeners_.find(packet.dst.port);
        lit != listeners_.end()) {
      auto conn = std::make_shared<TcpConnection>(
          *this, tuple, config_.tcp, /*initiator=*/false, next_isn());
      // The listener installs application callbacks; it runs before any
      // subsequent segment can arrive (that takes at least one more event).
      connections_.emplace(tuple, conn);
      lit->second.notify_accept(conn);
      conn->on_segment(packet);
      return;
    }
  }
  if (!packet.flags.rst) send_rst_for(packet);
}

void Host::handle_udp(const Packet& packet) {
  if (const auto it = udp_sockets_.find(packet.dst.port);
      it != udp_sockets_.end()) {
    it->second->on_datagram(packet);
  }
  // Unbound port: silently dropped (no ICMP in this simulator).
}

void Host::send_rst_for(const Packet& packet) {
  Packet rst;
  rst.protocol = Protocol::kTcp;
  rst.src = packet.dst;
  rst.dst = packet.src;
  rst.flags.rst = true;
  rst.flags.ack = true;
  rst.seq = packet.ack;
  rst.ack = packet.seq + static_cast<std::uint32_t>(packet.payload.size()) +
            (packet.flags.syn ? 1 : 0) + (packet.flags.fin ? 1 : 0);
  send_packet(std::move(rst));
}

}  // namespace bnm::net

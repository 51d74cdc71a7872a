// A simulated end host: NIC attachment, packet capture tap, optional egress
// netem qdisc, and a transport layer (TCP connections/listeners, UDP
// sockets) with per-packet stack processing delay.
//
// Layering on the send path:   transport -> [stack delay] -> capture tap ->
//                              [netem] -> link
// and on the receive path:     link -> capture tap -> [stack delay] ->
//                              transport demux -> application callback
//
// The capture tap therefore sits exactly where WinDump/tcpdump sat in the
// paper's testbed: at the NIC, outside the stack-processing delay.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <unordered_map>

#include "net/capture.h"
#include "net/fault.h"
#include "net/link.h"
#include "net/netem.h"
#include "net/tcp.h"
#include "net/udp.h"
#include "sim/simulation.h"

namespace bnm::net {

class Host : public PacketSink {
 public:
  struct Config {
    std::string name = "host";
    IpAddress ip;
    /// Kernel processing per packet in each direction.
    sim::Duration stack_delay = sim::Duration::micros(10);
    PacketCapture::Config capture{};
    /// Optional egress delay emulation (the paper's +50 ms on the server).
    std::optional<DelayEmulator::Config> egress_netem;
    /// Optional fault stage on the path just past the NIC (after netem on
    /// the way out). Corrupted packets are produced here.
    std::optional<FaultPlan> egress_faults;
    /// Optional fault stage on the last path segment before the NIC; a
    /// packet it drops is never seen by this host's capture tap.
    std::optional<FaultPlan> ingress_faults;
    TcpConfig tcp{};
  };

  Host(sim::Simulation& sim, Config config);

  /// Detaches application callbacks from any connection still open, so
  /// app-state cycles (connection -> callbacks -> app object -> connection)
  /// cannot outlive the host.
  ~Host() override;

  /// Plug this host into `link`; the host sits on `host_side`.
  void attach_link(Link* link, LinkSide host_side);

  // ---- TCP ----
  /// Active open toward `remote`. The returned connection is in SYN_SENT;
  /// `cbs.on_connect` fires when the handshake completes.
  std::shared_ptr<TcpConnection> tcp_connect(Endpoint remote, TcpCallbacks cbs);
  /// Passive open on `port`.
  void tcp_listen(Port port, TcpListener::AcceptCallback on_accept);
  void tcp_unlisten(Port port);

  // ---- UDP ----
  std::shared_ptr<UdpSocket> udp_open(Port local_port,
                                      UdpSocket::ReceiveCallback on_receive);
  /// Open on an ephemeral port.
  std::shared_ptr<UdpSocket> udp_open(UdpSocket::ReceiveCallback on_receive);
  void udp_close(Port local_port);

  // ---- Introspection ----
  sim::Simulation& sim() { return sim_; }
  const Config& config() const { return config_; }
  IpAddress ip() const { return config_.ip; }
  PacketCapture& capture() { return capture_; }
  const PacketCapture& capture() const { return capture_; }
  DelayEmulator* egress_netem() { return netem_ ? netem_.get() : nullptr; }
  FaultInjector* egress_faults() { return egress_faults_.get(); }
  FaultInjector* ingress_faults() { return ingress_faults_.get(); }
  /// Inbound packets dropped by the stack as corrupted (failed checksum).
  std::uint64_t checksum_drops() const { return checksum_drops_; }
  std::size_t open_connections() const { return connections_.size(); }

  // ---- Internal plumbing (used by TcpConnection / UdpSocket) ----
  /// Push a transport-built packet down the stack and onto the wire.
  void send_packet(Packet packet);
  Port allocate_ephemeral_port();
  std::uint32_t next_isn();
  std::uint64_t next_packet_id() { return id_base_ + id_counter_++; }
  void deregister_connection(const FourTuple& tuple);

  // PacketSink: packet arrived from the wire.
  void handle_packet(Packet packet) override;

 private:
  /// Ship a stack-processed packet onto the wire (netem -> faults -> link).
  void wire_out(Packet packet);
  /// A packet survived the inbound path faults: tap, checksum, stack, demux.
  void deliver_from_wire(Packet packet);
  void demux(const Packet& packet);
  void handle_tcp(const Packet& packet);
  void handle_udp(const Packet& packet);
  void send_rst_for(const Packet& packet);

  sim::Simulation& sim_;
  Config config_;
  PacketCapture capture_;
  std::unique_ptr<DelayEmulator> netem_;
  std::unique_ptr<FaultInjector> egress_faults_;
  std::unique_ptr<FaultInjector> ingress_faults_;
  std::uint64_t checksum_drops_ = 0;
  Link* link_ = nullptr;
  LinkSide link_side_ = LinkSide::kA;

  std::unordered_map<FourTuple, std::shared_ptr<TcpConnection>> connections_;
  std::unordered_map<Port, TcpListener> listeners_;
  std::unordered_map<Port, std::shared_ptr<UdpSocket>> udp_sockets_;
  // A packet in its stack-delay hop rides in the hop's event closure; one
  // still queued at teardown dies with the scheduler.

  Port next_ephemeral_ = 49152;
  std::uint32_t isn_counter_;
  std::uint64_t id_base_;
  std::uint64_t id_counter_ = 0;
};

}  // namespace bnm::net

// The paper's Figure 2 testbed: client and server machines joined by a
// 100 Mbps switched Ethernet, +50 ms netem delay on the server's egress,
// WinDump/tcpdump-equivalent capture at the client NIC, and the server-side
// services every measurement method needs (Apache-like web server, TCP
// echo, UDP echo, WebSocket echo).
#pragma once

#include <memory>
#include <string>
#include <tuple>

#include "browser/browser.h"
#include "browser/clock_set.h"
#include "http/server.h"
#include "net/host.h"
#include "net/link.h"
#include "net/cross_traffic.h"
#include "net/switch_fabric.h"
#include "sim/simulation.h"
#include "ws/endpoint.h"

namespace bnm::core {

class Testbed {
 public:
  struct Config {
    std::uint64_t seed = 42;
    /// netem delay added on the server side ("to simulate the Internet
    /// environment"; also the knob behind Table 3's handshake inflation).
    sim::Duration server_delay = sim::Duration::millis(50);
    double bandwidth_bps = 100e6;  ///< Fast Ethernet (Fig. 2)
    sim::Duration link_propagation = sim::Duration::micros(5);
    /// Client capture timestamping error (software capture, <= ~0.3 ms).
    sim::Duration capture_jitter = sim::Duration::micros(50);
    /// Also arm the server NIC's capture tap (same jitter). Off by default —
    /// the paper captures on the client — but the passive estimator can sit
    /// at either end, so far-end scenarios switch this on.
    bool capture_at_server = false;
    browser::OsId client_os = browser::OsId::kWindows7;
    net::Port http_port = 80;
    net::Port tcp_echo_port = 9000;
    net::Port udp_echo_port = 9001;
    net::Port ws_port = 8088;

    // --- impairment & contention knobs (ablations / loss experiments) ---
    /// Random loss on the switch<->server link (both directions).
    double link_loss_probability = 0.0;
    /// netem jitter on the server egress; with allow_reorder, packets may
    /// overtake (the reordering experiments' mechanism).
    sim::Duration server_jitter = sim::Duration::zero();
    bool allow_reorder = false;
    /// Background cross traffic (bystander host -> server) in Mbps;
    /// 0 keeps the paper's "free of cross traffic" condition.
    double cross_traffic_mbps = 0.0;
    /// Client (and server) TCP stack knobs - e.g. enable slow start for
    /// realistic bulk-transfer dynamics.
    net::TcpConfig tcp{};

    // --- fault injection (robustness experiments) ---
    /// Fault stage on the path toward the server (client->server packets,
    /// applied just before the server NIC).
    std::optional<net::FaultPlan> faults_to_server;
    /// Fault stage on the path away from the server (server->client
    /// packets, applied after the server's egress netem).
    std::optional<net::FaultPlan> faults_from_server;

    template <class S>  ///< field list (core/config_hash.h)
    static auto fields(S& s) {
      return std::tie(s.seed, s.server_delay, s.bandwidth_bps,
                      s.link_propagation, s.capture_jitter, s.client_os,
                      s.http_port, s.tcp_echo_port, s.udp_echo_port,
                      s.ws_port, s.link_loss_probability, s.server_jitter,
                      s.allow_reorder, s.cross_traffic_mbps, s.tcp,
                      s.faults_to_server, s.faults_from_server);
    }
    /// Observer only: reports are byte-identical with the tap on or off.
    template <class S>
    static auto unhashed_fields(S& s) { return std::tie(s.capture_at_server); }
  };

  explicit Testbed(Config config);

  sim::Simulation& sim() { return sim_; }
  net::Host& client() { return *client_; }
  net::Host& server() { return *server_; }
  browser::ClockSet& clocks() { return *clocks_; }
  http::WebServer& web_server() { return *web_; }
  const Config& config() const { return config_; }

  net::Endpoint http_endpoint() const;
  net::Endpoint tcp_echo_endpoint() const;
  net::Endpoint udp_echo_endpoint() const;
  net::Endpoint ws_endpoint() const;

  /// Launch a fresh browser session (one page-load lifetime). The machine's
  /// clocks persist across sessions - OS timer regimes are machine state.
  std::unique_ptr<browser::Browser> launch_browser(
      const browser::BrowserProfile& profile, std::uint64_t session_id);

  /// The cross-traffic generator, if configured (cross_traffic_mbps > 0).
  net::CrossTrafficGenerator* cross_traffic() { return cross_traffic_.get(); }

  /// Fault injectors, if configured (nullptr otherwise).
  net::FaultInjector* faults_to_server() { return server_->ingress_faults(); }
  net::FaultInjector* faults_from_server() { return server_->egress_faults(); }

 private:
  void start_services();

  Config config_;
  sim::Simulation sim_;
  std::unique_ptr<net::Host> client_;
  std::unique_ptr<net::Host> server_;
  std::unique_ptr<net::Link> client_link_;
  std::unique_ptr<net::Link> server_link_;
  std::unique_ptr<net::SwitchFabric> switch_;
  std::unique_ptr<browser::ClockSet> clocks_;
  std::unique_ptr<http::WebServer> web_;
  std::unique_ptr<ws::WebSocketServer> ws_echo_;
  std::shared_ptr<net::UdpSocket> udp_echo_;

  // Optional contention plumbing (bystander host on a third switch port).
  std::unique_ptr<net::Host> bystander_;
  std::unique_ptr<net::Link> bystander_link_;
  std::unique_ptr<net::CrossTrafficGenerator> cross_traffic_;
  std::shared_ptr<net::UdpSocket> traffic_sink_;
};

}  // namespace bnm::core

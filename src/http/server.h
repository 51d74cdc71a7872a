// Simulated web server (the testbed's Apache): routes, keep-alive handling,
// per-request application think time, and the endpoints the measurement
// container pages use.
//
// Built-in routes:
//   GET  /               container page for a measurement method (?method=)
//   GET  /echo           tiny response ("pong"), the RTT probe target
//   GET  /payload?size=N N bytes of data (throughput experiments)
//   POST /sink           accepts any body, tiny response
//   GET  /crossdomain.xml  Flash cross-domain policy (Section 2.1)
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "http/message.h"
#include "http/parser.h"
#include "net/host.h"

namespace bnm::http {

class WebServer {
 public:
  struct Config {
    net::Port port = 80;
    /// Application-level processing time per request (distinct from the
    /// testbed's 50 ms netem delay, which lives on the host's egress).
    sim::Duration think_time = sim::Duration::micros(200);
    std::string server_header = "Apache/2.2 (Ubuntu) [simulated]";
  };

  using Handler = std::function<HttpResponse(const HttpRequest&)>;

  WebServer(net::Host& host, Config config);

  /// Install or replace a route. Exact path match on the part before '?'.
  void route(const std::string& method, const std::string& path, Handler handler);

  std::uint64_t requests_served() const { return requests_served_; }
  std::uint64_t connections_accepted() const { return connections_accepted_; }

  net::Host& host() { return host_; }
  const Config& config() const { return config_; }

  /// Container page HTML for a measurement method name (what the browser
  /// downloads in the preparation phase).
  static std::string container_page(const std::string& method);

  /// Value of query parameter `name` in a "path?k=v&k2=v2" target, as a
  /// view into `target`: the last occurrence wins, a bare key reads as "".
  static std::optional<std::string_view> query_param(std::string_view target,
                                                     std::string_view name);
  static std::string path_of(const std::string& target);

 private:
  struct ConnState : std::enable_shared_from_this<ConnState> {
    std::shared_ptr<net::TcpConnection> conn;
    RequestParser parser;
    /// Parsed requests still in their think time, oldest first from
    /// pending_head. Think time is one per server, so their dispatch events
    /// fire in this order and each pops the head; the event's closure then
    /// carries only the server and this state, never a whole request.
    std::vector<HttpRequest> pending;
    std::size_t pending_head = 0;
    bool closing = false;
  };

  void install_default_routes();
  void on_accept(std::shared_ptr<net::TcpConnection> conn);
  void on_data(const std::shared_ptr<ConnState>& state,
               const net::Payload& bytes);
  void dispatch(const std::shared_ptr<ConnState>& state, HttpRequest request);
  HttpResponse handle(const HttpRequest& request);

  net::Host& host_;
  Config config_;
  std::unordered_map<std::string, Handler> routes_;  // "METHOD path"
  std::uint64_t requests_served_ = 0;
  std::uint64_t connections_accepted_ = 0;
};

}  // namespace bnm::http

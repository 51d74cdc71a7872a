// HTTP/1.1 client with a keep-alive connection pool.
//
// The pool is what makes the paper's Section 4.1 observable: a request that
// finds an idle pooled connection costs only the network RTT, while a
// client (or plugin policy) that bypasses the pool pays a TCP handshake
// first. Browser technologies toggle the pool per request through Options.
//
// Robustness: each request may carry a per-attempt timeout and a bounded
// retry budget with exponential backoff. A request that exhausts its budget
// (timeout, connection reset, parse error, close mid-response) is *always*
// answered: the caller's ResponseCallback receives a synthetic response with
// status == 0 (the same sentinel browsers hand XHR on a network error), so
// no caller ever hangs waiting for a reply that cannot come.
#pragma once

#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "http/message.h"
#include "http/parser.h"
#include "net/host.h"

namespace bnm::http {

class HttpClient {
 public:
  struct Options {
    bool reuse_pooled = true;    ///< try an idle pooled connection first
    bool pool_after_use = true;  ///< return the connection to the pool
    /// Follow 301/302 responses up to this many hops (0 = deliver the
    /// redirect to the caller). Each hop costs a full round trip - a
    /// classic hidden RTT-inflation source for measurement pages.
    int max_redirects = 0;
    /// Per-attempt deadline covering queue wait + connect + response.
    /// zero = no timeout (and no timer is armed). When zero, the client's
    /// default_timeout applies.
    sim::Duration request_timeout = sim::Duration::zero();
    /// Failed attempts (timeout/reset/parse error) are retried on a fresh
    /// attempt up to this many times, with exponentially growing backoff.
    /// Negative = use the client's default_retries.
    int max_retries = -1;
    /// Backoff before the first retry; doubles per subsequent retry.
    sim::Duration retry_backoff = sim::Duration::millis(200);
  };

  /// Browsers of the paper's era open at most ~6 parallel connections per
  /// host; further requests queue. Configurable per client.
  void set_max_connections_per_host(std::size_t n) { max_per_host_ = n; }
  std::size_t max_connections_per_host() const { return max_per_host_; }

  /// Client-wide defaults applied to requests that don't set their own
  /// timeout/retry knobs (the browser shims issue plain requests, so this
  /// is how an experiment arms the whole stack at once).
  void set_default_timeout(sim::Duration timeout) {
    default_timeout_ = timeout;
  }
  void set_default_retries(int retries, sim::Duration backoff) {
    default_retries_ = retries;
    default_backoff_ = backoff;
  }

  /// Application-visible transfer milestones (simulated instants).
  struct TransferInfo {
    bool opened_new_connection = false;
    sim::TimePoint started;            ///< request() call
    sim::TimePoint connect_complete;   ///< handshake done (== started if pooled)
    sim::TimePoint response_complete;  ///< full response parsed
    int retries = 0;                   ///< failed attempts before this reply
    sim::Duration handshake_cost() const { return connect_complete - started; }
  };

  using ResponseCallback = std::function<void(HttpResponse, TransferInfo)>;
  using ErrorCallback = std::function<void(const std::string&)>;

  explicit HttpClient(net::Host& host);

  /// Closes every tracked connection and detaches their callbacks, so TCP
  /// events arriving after the client dies touch nothing freed. Pending
  /// timeout/retry timers are cancelled.
  ~HttpClient();

  HttpClient(const HttpClient&) = delete;
  HttpClient& operator=(const HttpClient&) = delete;

  void request(net::Endpoint server, HttpRequest req, ResponseCallback cb) {
    request(server, std::move(req), std::move(cb), Options{});
  }
  void request(net::Endpoint server, HttpRequest req, ResponseCallback cb,
               Options opts);

  void set_error_callback(ErrorCallback cb) { on_error_ = std::move(cb); }

  /// Idle connections currently pooled for `server`.
  std::size_t pooled_connections(net::Endpoint server) const;
  /// Live (pooled or in-use) connections toward `server`.
  std::size_t live_connections(net::Endpoint server) const;
  /// Requests waiting for a connection slot toward `server`.
  std::size_t queued_requests(net::Endpoint server) const;
  /// Total TCP connections this client has opened.
  std::uint64_t connections_opened() const { return connections_opened_; }

  // Resilience counters (cumulative over the client's lifetime).
  std::uint64_t request_timeouts() const { return timeouts_; }
  std::uint64_t request_retries() const { return retries_; }
  /// Requests that exhausted their retry budget (answered with status 0).
  std::uint64_t request_failures() const { return failures_; }

  /// Close every pooled connection (end of a measurement session).
  void close_all();

  net::Host& host() { return host_; }

 private:
  struct RequestState;

  /// One pooled connection. Its TCP callbacks are installed once, when the
  /// connection opens, and read the attempt they serve from `state` and
  /// `attempt`; only on_reset holds the entry strongly, so the other
  /// callbacks capture a plain pointer and copy for free on every segment.
  struct PoolEntry : std::enable_shared_from_this<PoolEntry> {
    std::shared_ptr<net::TcpConnection> conn;
    net::Endpoint server;
    ResponseParser parser;
    /// The attempt this connection serves; null once its response is in.
    std::shared_ptr<RequestState> state;
    std::uint64_t attempt = 0;
    bool started = false;  ///< a request was sent (handshake done)
    bool busy = false;
    bool alive = true;
    bool counted = true;  ///< still held against the per-host limit
  };

  /// One logical request: survives across retries until settled.
  struct RequestState : std::enable_shared_from_this<RequestState> {
    net::Endpoint server;
    HttpRequest req;
    ResponseCallback cb;
    Options opts;
    TransferInfo info;
    int retries_left = 0;
    sim::Duration backoff;
    /// Bumped whenever an attempt is abandoned; stale failure signals from
    /// the old attempt's connection compare ids and become no-ops.
    std::uint64_t attempt = 0;
    bool settled = false;
    std::weak_ptr<PoolEntry> entry;  ///< the attempt's connection, if any
    sim::EventHandle timeout_timer;
    sim::EventHandle retry_timer;
  };

  struct QueuedRequest {
    std::shared_ptr<RequestState> state;
    std::uint64_t attempt = 0;  ///< stale if != state->attempt
  };

  /// Start (or queue) one attempt for `state`.
  void dispatch(const std::shared_ptr<RequestState>& state);
  void start_on(const std::shared_ptr<PoolEntry>& entry,
                const std::shared_ptr<RequestState>& state);
  void open_and_start(const std::shared_ptr<RequestState>& state);
  // The connection's TCP callbacks.
  void on_connected(PoolEntry& e);
  void on_response_bytes(PoolEntry& e, const net::Payload& bytes);
  void on_closed(PoolEntry& e);
  void on_reset(PoolEntry& e);
  void finish(const std::shared_ptr<PoolEntry>& entry,
              const std::shared_ptr<RequestState>& state,
              HttpResponse response);
  /// Attempt `attempt` of `state` failed. Retries if budget remains,
  /// otherwise settles the request with a synthetic status-0 response.
  void fail_attempt(const std::shared_ptr<RequestState>& state,
                    std::uint64_t attempt, const std::string& reason);
  void settle(const std::shared_ptr<RequestState>& state,
              HttpResponse response);
  void arm_timeout(const std::shared_ptr<RequestState>& state);
  std::shared_ptr<PoolEntry> take_idle(net::Endpoint server);
  /// Drop a dead entry from the per-host count and unblock queued work.
  void release_slot(net::Endpoint server, PoolEntry& entry);
  /// Start queued requests while slots or idle connections allow.
  void pump_queue(net::Endpoint server);
  /// Kill the attempt's connection so it cannot be pooled or call back.
  void abandon_entry(const std::shared_ptr<RequestState>& state);

  net::Host& host_;
  std::unordered_map<net::Endpoint, std::vector<std::shared_ptr<PoolEntry>>> pool_;
  std::unordered_map<net::Endpoint, std::size_t> live_count_;
  std::unordered_map<net::Endpoint, std::deque<QueuedRequest>> queue_;
  /// Unsettled requests, so the dtor can cancel their timers.
  std::unordered_map<RequestState*, std::shared_ptr<RequestState>> inflight_;
  ErrorCallback on_error_;
  std::uint64_t connections_opened_ = 0;
  std::uint64_t timeouts_ = 0;
  std::uint64_t retries_ = 0;
  std::uint64_t failures_ = 0;
  std::size_t max_per_host_ = 6;
  sim::Duration default_timeout_ = sim::Duration::zero();
  int default_retries_ = 0;
  sim::Duration default_backoff_ = sim::Duration::millis(200);
};

}  // namespace bnm::http

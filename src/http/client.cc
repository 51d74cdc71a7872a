#include "http/client.h"

#include <utility>

#include "obs/metrics.h"

namespace {

// Process-wide HTTP resilience totals ("http.*" in docs/OBSERVABILITY.md);
// the per-client members stay the public accessors.
const bnm::obs::Counter& timeouts_total() {
  static const bnm::obs::Counter c =
      bnm::obs::MetricsRegistry::instance().counter(
          "http.request_timeouts", "requests", "request attempts timed out");
  return c;
}
const bnm::obs::Counter& retries_total() {
  static const bnm::obs::Counter c =
      bnm::obs::MetricsRegistry::instance().counter(
          "http.request_retries", "requests", "request attempts retried");
  return c;
}
const bnm::obs::Counter& failures_total() {
  static const bnm::obs::Counter c =
      bnm::obs::MetricsRegistry::instance().counter(
          "http.request_failures", "requests",
          "requests settled with synthetic status 0");
  return c;
}
const bnm::obs::Counter& connections_total() {
  static const bnm::obs::Counter c =
      bnm::obs::MetricsRegistry::instance().counter(
          "http.connections_opened", "connections",
          "TCP connections opened by clients");
  return c;
}

}  // namespace

namespace bnm::http {

HttpClient::HttpClient(net::Host& host) : host_{host} {}

HttpClient::~HttpClient() {
  queue_.clear();
  for (auto& [ptr, state] : inflight_) {
    state->timeout_timer.cancel();
    state->retry_timer.cancel();
    state->settled = true;
  }
  inflight_.clear();
  for (auto& [server, vec] : pool_) {
    for (auto& e : vec) {
      if (e->conn) {
        e->conn->set_callbacks({});
        if (e->alive) e->conn->close();
      }
      e->alive = false;
    }
  }
}

std::shared_ptr<HttpClient::PoolEntry> HttpClient::take_idle(
    net::Endpoint server) {
  auto it = pool_.find(server);
  if (it == pool_.end()) return nullptr;
  auto& vec = it->second;
  while (!vec.empty()) {
    auto entry = vec.back();
    vec.pop_back();
    if (entry->alive && !entry->busy && entry->conn->established()) {
      return entry;
    }
  }
  return nullptr;
}

void HttpClient::release_slot(net::Endpoint server, PoolEntry& entry) {
  if (!entry.counted) return;
  entry.counted = false;
  auto it = live_count_.find(server);
  if (it != live_count_.end() && it->second > 0) --it->second;
  pump_queue(server);
}

void HttpClient::pump_queue(net::Endpoint server) {
  auto qit = queue_.find(server);
  if (qit == queue_.end()) return;
  auto& q = qit->second;
  while (!q.empty()) {
    // Skip requests whose attempt was abandoned (timed out while queued).
    if (q.front().state->settled ||
        q.front().attempt != q.front().state->attempt) {
      q.pop_front();
      continue;
    }
    // Prefer an idle pooled connection; otherwise open one if a slot is
    // free; otherwise keep waiting.
    if (auto entry = take_idle(server)) {
      auto state = std::move(q.front().state);
      q.pop_front();
      state->info.opened_new_connection = false;
      state->info.connect_complete = host_.sim().now();
      start_on(entry, state);
      continue;
    }
    if (live_count_[server] < max_per_host_) {
      auto state = std::move(q.front().state);
      q.pop_front();
      open_and_start(state);
      continue;
    }
    break;
  }
}

void HttpClient::request(net::Endpoint server, HttpRequest req,
                         ResponseCallback cb, Options opts) {
  if (opts.request_timeout.is_zero()) opts.request_timeout = default_timeout_;
  if (opts.max_retries < 0) {
    opts.max_retries = default_retries_;
    opts.retry_backoff = default_backoff_;
  }

  auto state = std::make_shared<RequestState>();
  state->server = server;
  state->req = std::move(req);
  state->cb = std::move(cb);
  state->opts = opts;
  state->info.started = host_.sim().now();
  state->retries_left = opts.max_retries;
  state->backoff = opts.retry_backoff;
  inflight_.emplace(state.get(), state);
  dispatch(state);
}

void HttpClient::arm_timeout(const std::shared_ptr<RequestState>& state) {
  if (state->opts.request_timeout.is_zero()) return;
  const std::uint64_t attempt = state->attempt;
  state->timeout_timer = host_.sim().scheduler().schedule_after(
      state->opts.request_timeout, [this, state, attempt] {
        if (state->settled || attempt != state->attempt) return;
        ++timeouts_;
        timeouts_total().add(1);
        fail_attempt(state, attempt, "request timeout");
      });
}

void HttpClient::dispatch(const std::shared_ptr<RequestState>& state) {
  arm_timeout(state);

  if (state->opts.reuse_pooled) {
    if (auto entry = take_idle(state->server)) {
      state->info.opened_new_connection = false;
      state->info.connect_complete = host_.sim().now();
      start_on(entry, state);
      return;
    }
  }

  if (live_count_[state->server] >= max_per_host_) {
    // At the per-host parallel-connection limit: queue like a browser.
    queue_[state->server].push_back(QueuedRequest{state, state->attempt});
    return;
  }
  open_and_start(state);
}

void HttpClient::open_and_start(const std::shared_ptr<RequestState>& state) {
  state->info.opened_new_connection = true;
  ++connections_opened_;
  connections_total().add(1);
  ++live_count_[state->server];
  auto entry = std::make_shared<PoolEntry>();
  entry->server = state->server;
  entry->state = state;
  entry->attempt = state->attempt;
  entry->busy = true;
  state->entry = entry;
  PoolEntry* e = entry.get();
  net::TcpCallbacks cbs;
  cbs.on_connect = [this, e] { on_connected(*e); };
  cbs.on_data = [this, e](const net::Payload& bytes) {
    on_response_bytes(*e, bytes);
  };
  cbs.on_close = [this, e] { on_closed(*e); };
  cbs.on_reset = [this, entry] { on_reset(*entry); };
  entry->conn = host_.tcp_connect(state->server, std::move(cbs));
}

void HttpClient::on_connected(PoolEntry& e) {
  const auto entry = e.shared_from_this();
  const auto state = entry->state;
  if (state->settled || entry->attempt != state->attempt) {
    // Attempt abandoned while connecting: don't keep the connection.
    entry->alive = false;
    release_slot(entry->server, *entry);
    entry->conn->close();
    return;
  }
  state->info.connect_complete = host_.sim().now();
  start_on(entry, state);
}

void HttpClient::on_response_bytes(PoolEntry& e, const net::Payload& bytes) {
  if (!e.started) return;
  const auto entry = e.shared_from_this();
  const auto state = entry->state;
  const std::uint64_t attempt = entry->attempt;
  entry->parser.feed(bytes);
  if (entry->parser.failed()) {
    entry->alive = false;
    release_slot(entry->server, *entry);
    entry->conn->abort();
    if (state) fail_attempt(state, attempt, "response parse error");
    return;
  }
  if (auto resp = entry->parser.take()) {
    if (!state || state->settled || attempt != state->attempt) return;
    state->info.response_complete = host_.sim().now();
    finish(entry, state, std::move(*resp));
  }
}

void HttpClient::on_closed(PoolEntry& e) {
  if (!e.started) return;
  const auto entry = e.shared_from_this();
  const auto state = entry->state;
  const std::uint64_t attempt = entry->attempt;
  entry->alive = false;
  release_slot(entry->server, *entry);
  entry->parser.on_connection_closed();
  if (auto resp = entry->parser.take()) {
    if (!state || state->settled || attempt != state->attempt) return;
    state->info.response_complete = host_.sim().now();
    finish(entry, state, std::move(*resp));
  } else if (entry->busy && state) {
    fail_attempt(state, attempt, "connection closed mid-response");
  }
}

void HttpClient::on_reset(PoolEntry& e) {
  const auto entry = e.shared_from_this();
  const auto state = entry->state;
  entry->alive = false;
  release_slot(entry->server, *entry);
  if (entry->busy && state) {
    fail_attempt(state, entry->attempt,
                 entry->started ? "connection reset"
                                : "connect failed: connection reset");
  }
}

void HttpClient::start_on(const std::shared_ptr<PoolEntry>& entry,
                          const std::shared_ptr<RequestState>& state) {
  entry->busy = true;
  entry->started = true;
  entry->state = state;
  entry->attempt = state->attempt;
  state->entry = entry;
  entry->conn->send(state->req.serialize());
}

void HttpClient::abandon_entry(const std::shared_ptr<RequestState>& state) {
  if (auto entry = state->entry.lock()) {
    if (entry->conn) entry->conn->set_callbacks({});
    if (entry->alive) {
      entry->alive = false;
      release_slot(state->server, *entry);
      if (entry->conn) entry->conn->abort();
    }
  }
  state->entry.reset();
}

void HttpClient::fail_attempt(const std::shared_ptr<RequestState>& state,
                              std::uint64_t attempt,
                              const std::string& reason) {
  if (state->settled || attempt != state->attempt) return;
  ++state->attempt;  // invalidate every other signal from this attempt
  state->timeout_timer.cancel();
  abandon_entry(state);

  if (state->retries_left > 0) {
    --state->retries_left;
    ++retries_;
    retries_total().add(1);
    ++state->info.retries;
    const sim::Duration backoff = state->backoff;
    state->backoff = state->backoff * 2;
    if (host_.sim().trace().enabled()) {
      host_.sim().trace().emit(host_.sim().now(), "http",
                               "retry after " + backoff.to_string() + " (" +
                                   reason + ")");
    }
    state->retry_timer = host_.sim().scheduler().schedule_after(
        backoff, [this, state] {
          if (state->settled) return;
          dispatch(state);
        });
    return;
  }

  ++failures_;
  failures_total().add(1);
  if (on_error_) on_error_(reason);
  // Always answer: a synthetic network-error response (status 0), so no
  // caller is left waiting on a request that can never complete.
  HttpResponse failure;
  failure.status = 0;
  failure.reason = reason;
  state->info.response_complete = host_.sim().now();
  settle(state, std::move(failure));
}

void HttpClient::settle(const std::shared_ptr<RequestState>& state,
                        HttpResponse response) {
  if (state->settled) return;
  state->settled = true;
  state->timeout_timer.cancel();
  state->retry_timer.cancel();
  inflight_.erase(state.get());
  state->cb(std::move(response), state->info);
}

namespace {
/// Parse a Location header: "/path" (same server) or
/// "http://a.b.c.d[:port]/path". Returns false on anything else.
bool parse_location(std::string_view location, net::Endpoint same_server,
                    net::Endpoint& out_server, std::string& out_path) {
  if (!location.empty() && location.front() == '/') {
    out_server = same_server;
    out_path = location;
    return true;
  }
  if (location.substr(0, 7) != "http://") return false;
  const std::string rest{location.substr(7)};
  const auto slash = rest.find('/');
  const std::string hostport =
      slash == std::string::npos ? rest : rest.substr(0, slash);
  out_path = slash == std::string::npos ? "/" : rest.substr(slash);
  const auto colon = hostport.find(':');
  try {
    if (colon == std::string::npos) {
      out_server.ip = net::IpAddress::parse(hostport);
      out_server.port = 80;
    } else {
      out_server.ip = net::IpAddress::parse(hostport.substr(0, colon));
      out_server.port = static_cast<net::Port>(
          std::strtoul(hostport.substr(colon + 1).c_str(), nullptr, 10));
    }
  } catch (...) {
    return false;
  }
  return true;
}
}  // namespace

void HttpClient::finish(const std::shared_ptr<PoolEntry>& entry,
                        const std::shared_ptr<RequestState>& state,
                        HttpResponse response) {
  state->timeout_timer.cancel();
  entry->busy = false;
  entry->state.reset();  // the connection no longer serves this request
  const net::Endpoint server = state->server;
  const bool keep = response.wants_keep_alive() && entry->alive;
  if (keep && state->opts.pool_after_use) {
    pool_[server].push_back(entry);
  } else if (entry->alive) {
    entry->alive = false;
    release_slot(server, *entry);
    entry->conn->close();
  }
  state->entry.reset();

  // Follow redirects transparently; each hop is a fresh GET and a fresh
  // round trip charged to the same TransferInfo.started.
  if ((response.status == 301 || response.status == 302) &&
      state->opts.max_redirects > 0) {
    if (const auto location = response.headers.get("Location")) {
      net::Endpoint next_server;
      std::string next_path;
      if (parse_location(*location, server, next_server, next_path)) {
        HttpRequest next;
        next.method = "GET";
        next.target = next_path;
        next.headers.set("Host", next_server.to_string());
        Options next_opts = state->opts;
        --next_opts.max_redirects;
        ResponseCallback chain =
            [cb = state->cb, first_started = state->info.started,
             prior_retries = state->info.retries](HttpResponse r,
                                                  TransferInfo hop_info) {
              hop_info.started = first_started;  // whole chain's duration
              hop_info.retries += prior_retries;
              cb(std::move(r), hop_info);
            };
        state->settled = true;
        state->retry_timer.cancel();
        inflight_.erase(state.get());
        pump_queue(server);
        request(next_server, std::move(next), std::move(chain), next_opts);
        return;
      }
    }
  }

  settle(state, std::move(response));
  // The entry may now be idle (or a slot freed): unblock queued requests.
  pump_queue(server);
}

std::size_t HttpClient::pooled_connections(net::Endpoint server) const {
  const auto it = pool_.find(server);
  if (it == pool_.end()) return 0;
  std::size_t n = 0;
  for (const auto& e : it->second) {
    if (e->alive && !e->busy) ++n;
  }
  return n;
}

std::size_t HttpClient::live_connections(net::Endpoint server) const {
  const auto it = live_count_.find(server);
  return it == live_count_.end() ? 0 : it->second;
}

std::size_t HttpClient::queued_requests(net::Endpoint server) const {
  const auto it = queue_.find(server);
  return it == queue_.end() ? 0 : it->second.size();
}

void HttpClient::close_all() {
  queue_.clear();
  for (auto& [server, vec] : pool_) {
    for (auto& e : vec) {
      if (e->alive) {
        e->alive = false;
        if (e->counted) {
          e->counted = false;
          auto it = live_count_.find(server);
          if (it != live_count_.end() && it->second > 0) --it->second;
        }
        e->conn->close();
      }
    }
    vec.clear();
  }
  pool_.clear();
}

}  // namespace bnm::http

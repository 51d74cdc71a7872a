#include "http/server.h"

#include <cstdlib>
#include <utility>

namespace bnm::http {

WebServer::WebServer(net::Host& host, Config config)
    : host_{host}, config_{std::move(config)} {
  install_default_routes();
  host_.tcp_listen(config_.port, [this](std::shared_ptr<net::TcpConnection> c) {
    on_accept(std::move(c));
  });
}

void WebServer::route(const std::string& method, const std::string& path,
                      Handler handler) {
  routes_[method + " " + path] = std::move(handler);
}

std::string WebServer::path_of(const std::string& target) {
  const auto q = target.find('?');
  return q == std::string::npos ? target : target.substr(0, q);
}

std::string WebServer::container_page(const std::string& method) {
  // Mirrors the paper's PHP/HTML container pages: a page embedding the
  // measurement code for one method. The body content is representative,
  // not executable - the simulated browser runtime interprets the method
  // name, just as a real rendering engine would interpret the script.
  return "<!DOCTYPE html>\n"
         "<html><head><title>bnm delay measurement: " + method + "</title>\n"
         "<script type=\"text/javascript\" src=\"/measure/" + method + ".js\">"
         "</script></head>\n"
         "<body onload=\"runMeasurement('" + method + "')\">\n"
         "<div id=\"status\">measuring with " + method + "...</div>\n"
         "<div id=\"result\"></div>\n"
         "</body></html>\n";
}

std::optional<std::string_view> WebServer::query_param(std::string_view target,
                                                      std::string_view name) {
  const auto q = target.find('?');
  if (q == std::string_view::npos) return std::nullopt;
  std::optional<std::string_view> found;
  std::string_view rest = target.substr(q + 1);
  while (!rest.empty()) {
    const auto amp = rest.find('&');
    const std::string_view kv = rest.substr(0, amp);
    const auto eq = kv.find('=');
    if (kv.substr(0, eq) == name) {
      found = eq == std::string_view::npos ? std::string_view{}
                                           : kv.substr(eq + 1);
    }
    if (amp == std::string_view::npos) break;
    rest.remove_prefix(amp + 1);
  }
  return found;
}

void WebServer::install_default_routes() {
  route("GET", "/", [](const HttpRequest& req) {
    const auto method = query_param(req.target, "method");
    return HttpResponse::make(
        200, container_page(std::string{method.value_or("xhr_get")}),
        "text/html");
  });
  route("GET", "/echo", [](const HttpRequest&) {
    return HttpResponse::make(200, "pong");
  });
  route("POST", "/sink", [](const HttpRequest& req) {
    return HttpResponse::make(200, "got " + std::to_string(req.body.size()));
  });
  route("GET", "/payload", [](const HttpRequest& req) {
    std::size_t size = 1024;
    if (const auto value = query_param(req.target, "size")) {
      size = static_cast<std::size_t>(
          std::strtoull(std::string{*value}.c_str(), nullptr, 10));
    }
    std::string body(size, 'x');
    return HttpResponse::make(200, std::move(body),
                              "application/octet-stream");
  });
  route("GET", "/redirect", [](const HttpRequest& req) {
    HttpResponse r = HttpResponse::make(302, "");
    r.headers.set("Location",
                  std::string{query_param(req.target, "to").value_or("/echo")});
    return r;
  });
  route("GET", "/crossdomain.xml", [](const HttpRequest&) {
    return HttpResponse::make(
        200,
        "<?xml version=\"1.0\"?>\n<cross-domain-policy>\n"
        "  <allow-access-from domain=\"*\" to-ports=\"*\"/>\n"
        "</cross-domain-policy>\n",
        "text/x-cross-domain-policy");
  });
}

void WebServer::on_accept(std::shared_ptr<net::TcpConnection> conn) {
  ++connections_accepted_;
  auto state = std::make_shared<ConnState>();
  state->conn = std::move(conn);
  // TCP copies a callback before each call, so the per-segment ones
  // capture a plain pointer (a free copy) and re-take ownership inside;
  // on_reset owns the state for as long as the callbacks are installed
  // (a reset needs no action here).
  ConnState* raw = state.get();
  net::TcpCallbacks cbs;
  cbs.on_data = [this, raw](const net::Payload& bytes) {
    on_data(raw->shared_from_this(), bytes);
  };
  cbs.on_close = [raw] {
    // Peer closed; finish our side.
    const auto keep = raw->shared_from_this();
    keep->conn->close();
  };
  cbs.on_reset = [state] {};
  state->conn->set_callbacks(std::move(cbs));
}

void WebServer::on_data(const std::shared_ptr<ConnState>& state,
                        const net::Payload& bytes) {
  if (state->closing) return;
  state->parser.feed(bytes);
  if (state->parser.failed()) {
    HttpResponse bad = HttpResponse::make(400, "bad request");
    bad.headers.set("Connection", "close");
    state->conn->send(bad.serialize());
    state->conn->close();
    state->closing = true;
    return;
  }
  while (auto request = state->parser.take()) {
    dispatch(state, std::move(*request));
  }
}

void WebServer::dispatch(const std::shared_ptr<ConnState>& state,
                         HttpRequest request) {
  state->pending.push_back(std::move(request));
  host_.sim().scheduler().post_after(config_.think_time, [this, state] {
    const HttpRequest req = std::move(state->pending[state->pending_head++]);
    if (state->pending_head == state->pending.size()) {
      state->pending.clear();  // keeps capacity for the next request
      state->pending_head = 0;
    }
    if (state->closing) return;
    HttpResponse resp = handle(req);
    resp.headers.set("Server", config_.server_header);
    const bool keep = req.wants_keep_alive();
    if (!keep) resp.headers.set("Connection", "close");
    ++requests_served_;
    state->conn->send(resp.serialize());
    if (!keep) {
      state->conn->close();
      state->closing = true;
    }
  });
}

HttpResponse WebServer::handle(const HttpRequest& request) {
  const std::string key = request.method + " " + path_of(request.target);
  if (const auto it = routes_.find(key); it != routes_.end()) {
    return it->second(request);
  }
  // Method mismatch on a known path?
  for (const auto& [k, v] : routes_) {
    if (k.substr(k.find(' ') + 1) == path_of(request.target)) {
      return HttpResponse::make(405, "method not allowed");
    }
  }
  return HttpResponse::make(404, "not found");
}

}  // namespace bnm::http

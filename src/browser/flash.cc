#include "browser/flash.h"

#include <utility>

namespace bnm::browser {

void FlashRuntime::fetch_policy(net::IpAddress host,
                                std::function<void(bool)> done) {
  if (policy_loaded(host)) {
    done(true);
    return;
  }
  http::HttpRequest req;
  req.method = "GET";
  req.target = "/crossdomain.xml";
  const net::Endpoint target{host, 80};
  browser_.http().request(
      target, std::move(req),
      [this, alive = alive_, host, done = std::move(done)](
          http::HttpResponse resp, http::HttpClient::TransferInfo) {
        if (!*alive) return;
        const bool ok = resp.status == 200 &&
                        resp.body.find("cross-domain-policy") != std::string::npos;
        if (ok) policy_hosts_.insert(host);
        done(ok);
      });
}

bool FlashRuntime::URLLoader::load(const std::string& method,
                                   const std::string& url,
                                   const std::string& body) {
  Browser& b = runtime_.browser();
  const auto parsed = parse_url(url, b.origin());
  if (!parsed) {
    if (on_error_) on_error_("malformed URL");
    return false;
  }

  const ProbeKind kind =
      method == "POST" ? ProbeKind::kFlashPost : ProbeKind::kFlashGet;
  const bool first_obj_use = !used_before_;
  used_before_ = true;

  // Section 4.1 policies: some plugins bypass the browser's connection
  // pool - the measurement then swallows a TCP handshake.
  const ConnectionPolicy& policy = b.profile().policy;
  bool reuse = true;
  if (policy.flash_first_request_new_connection && !runtime_.made_http_request()) {
    reuse = false;
  }
  if (policy.flash_post_always_new_connection && method == "POST") {
    reuse = false;
  }
  runtime_.note_http_request();

  http::HttpRequest req;
  req.method = method;
  req.target = parsed->path;
  req.headers.set("Host", parsed->endpoint.to_string());
  req.body = body;

  http::HttpClient::Options opts;
  opts.reuse_pooled = reuse;
  opts.pool_after_use = true;

  const sim::Duration pre = b.sample_pre_send(kind, first_obj_use);
  b.sim().scheduler().post_after(
      pre, [this, alive = alive_, &b, kind, first_obj_use,
            target = parsed->endpoint, req = std::move(req), opts] {
        if (!*alive) return;
        b.http().request(
            target, req,
            [this, alive, &b, kind, first_obj_use](
                http::HttpResponse resp, http::HttpClient::TransferInfo) {
              if (!*alive) return;
              const sim::Duration dispatch =
                  b.sample_recv_dispatch(kind, first_obj_use);
              b.event_loop().post(
                  dispatch, [this, alive, resp = std::move(resp)] {
                    if (!*alive) return;
                    // Network failure surfaces as IOErrorEvent, not
                    // Event.COMPLETE with a bogus status.
                    if (resp.status == 0) {
                      if (on_error_) on_error_("network error");
                      return;
                    }
                    if (on_complete_) on_complete_(resp.status, resp.body);
                  });
            },
            opts);
      });
  return true;
}

void FlashRuntime::Socket::connect(net::Endpoint target) {
  if (runtime_.policy_loaded(target.ip)) {
    do_connect(target);
    return;
  }
  runtime_.fetch_policy(target.ip, [this, alive = alive_, target](bool ok) {
    if (!*alive) return;
    if (!ok) {
      if (on_error_) on_error_("cross-domain policy rejected");
      return;
    }
    do_connect(target);
  });
}

void FlashRuntime::Socket::do_connect(net::Endpoint target) {
  Browser& b = runtime_.browser();
  net::TcpCallbacks cbs;
  cbs.on_connect = [this, &b] {
    b.event_loop().post(sim::Duration::micros(100), [this] {
      if (on_connect_) on_connect_();
    });
  };
  cbs.on_data = [this, &b](const net::Payload& bytes) {
    const sim::Duration dispatch =
        b.sample_recv_dispatch(ProbeKind::kFlashSocket, current_is_first_);
    b.event_loop().post(dispatch, [this, data = net::to_string(bytes)] {
      if (on_socket_data_) on_socket_data_(data);
    });
  };
  cbs.on_reset = [this] {
    if (on_error_) on_error_("connection reset");
  };
  conn_ = b.host().tcp_connect(target, std::move(cbs));
}

void FlashRuntime::Socket::write(const std::string& bytes) {
  if (!conn_ || !conn_->established()) {
    if (on_error_) on_error_("write on unconnected socket");
    return;
  }
  Browser& b = runtime_.browser();
  current_is_first_ = !used_before_;
  used_before_ = true;
  const sim::Duration pre =
      b.sample_pre_send(ProbeKind::kFlashSocket, current_is_first_);
  b.sim().scheduler().post_after(pre, [this, alive = alive_, bytes] {
    if (!*alive || !conn_) return;
    conn_->send(bytes);
  });
}

void FlashRuntime::Socket::close() {
  if (conn_) conn_->close();
}

FlashRuntime::Socket::~Socket() {
  *alive_ = false;
  if (conn_) {
    conn_->set_callbacks({});
    if (conn_->established()) conn_->close();
  }
}

}  // namespace bnm::browser

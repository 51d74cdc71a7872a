#include "browser/java_applet.h"

#include <utility>

namespace bnm::browser {

sim::Duration JavaAppletRuntime::pre_send(ProbeKind kind, bool first_use) {
  if (options_.via_appletviewer) {
    // No browser plugin between the applet and the stack: only the JRE's
    // own call costs remain.
    sim::Duration d = browser_.rng().uniform_ms(0.02, 0.08);
    if (first_use) d += browser_.rng().uniform_ms(0.02, 0.10);
    return d;
  }
  return browser_.sample_pre_send(kind, first_use);
}

sim::Duration JavaAppletRuntime::recv_dispatch(ProbeKind kind, bool first_use) {
  if (options_.via_appletviewer) {
    return browser_.rng().uniform_ms(0.05, 0.15);
  }
  return browser_.sample_recv_dispatch(kind, first_use,
                                       /*java_date_path=*/!options_.use_nanotime);
}

bool JavaAppletRuntime::UrlConnection::load(const std::string& method,
                                            const std::string& url,
                                            const std::string& body) {
  Browser& b = runtime_.browser();
  const auto parsed = parse_url(url, b.origin());
  if (!parsed) {
    if (on_error_) on_error_("malformed URL");
    return false;
  }
  const ProbeKind kind =
      method == "POST" ? ProbeKind::kJavaPost : ProbeKind::kJavaGet;
  const bool first = !used_before_;
  used_before_ = true;

  http::HttpRequest req;
  req.method = method;
  req.target = parsed->path;
  req.headers.set("Host", parsed->endpoint.to_string());
  req.body = body;

  const sim::Duration pre = runtime_.pre_send(kind, first);
  b.sim().scheduler().post_after(
      pre, [this, alive = alive_, &b, kind, first, target = parsed->endpoint,
            req = std::move(req)] {
        if (!*alive) return;
        b.http().request(
            target, req,
            [this, alive, &b, kind, first](http::HttpResponse resp,
                                           http::HttpClient::TransferInfo) {
              if (!*alive) return;
              // Completion is detected by reading the content; the JRE
              // still charges a dispatch delay for the read to return.
              const sim::Duration dispatch = runtime_.recv_dispatch(kind, first);
              b.sim().scheduler().post_after(
                  dispatch, [this, alive, resp = std::move(resp)] {
                    if (!*alive) return;
                    // A dead transport throws IOException from the read.
                    if (resp.status == 0) {
                      if (on_error_) on_error_("network error");
                      return;
                    }
                    if (on_complete_) on_complete_(resp.status, resp.body);
                  });
            });
      });
  return true;
}

void JavaAppletRuntime::Socket::connect(net::Endpoint target) {
  Browser& b = runtime_.browser();
  net::TcpCallbacks cbs;
  cbs.on_connect = [this, alive = alive_, &b] {
    b.sim().scheduler().post_after(sim::Duration::micros(100), [this, alive] {
      if (!*alive) return;
      if (on_connect_) on_connect_();
    });
  };
  cbs.on_data = [this, alive = alive_, &b](const net::Payload& bytes) {
    const sim::Duration dispatch =
        runtime_.recv_dispatch(ProbeKind::kJavaSocket, current_is_first_);
    b.sim().scheduler().post_after(
        dispatch, [this, alive, data = net::to_string(bytes)] {
          if (!*alive) return;
          if (on_data_) on_data_(data);
        });
  };
  cbs.on_reset = [this, alive = alive_] {
    if (!*alive) return;
    // java.net.SocketException: Connection reset.
    if (on_error_) on_error_("connection reset");
  };
  conn_ = b.host().tcp_connect(target, std::move(cbs));
}

void JavaAppletRuntime::Socket::write(const std::string& bytes) {
  if (!conn_ || !conn_->established()) return;
  current_is_first_ = !used_before_;
  used_before_ = true;
  const sim::Duration pre =
      runtime_.pre_send(ProbeKind::kJavaSocket, current_is_first_);
  runtime_.browser().sim().scheduler().post_after(
      pre, [this, alive = alive_, bytes] {
        if (!*alive || !conn_) return;
        conn_->send(bytes);
      });
}

void JavaAppletRuntime::Socket::close() {
  if (conn_) conn_->close();
}

JavaAppletRuntime::Socket::~Socket() {
  *alive_ = false;
  if (conn_) {
    conn_->set_callbacks({});
    if (conn_->established()) conn_->close();
  }
}

JavaAppletRuntime::DatagramSocket::DatagramSocket(JavaAppletRuntime& runtime)
    : runtime_{runtime} {
  Browser& b = runtime_.browser();
  sock_ = b.host().udp_open([this, alive = alive_, &b](
                                net::Endpoint src, const net::Payload& bytes) {
    if (!*alive) return;
    receive_deadline_.cancel();  // the blocked receive() returned
    const sim::Duration dispatch =
        runtime_.recv_dispatch(ProbeKind::kJavaUdp, current_is_first_);
    b.sim().scheduler().post_after(
        dispatch, [this, alive, src, data = net::to_string(bytes)] {
          if (!*alive) return;
          if (on_receive_) on_receive_(src, data);
        });
  });
}

JavaAppletRuntime::DatagramSocket::~DatagramSocket() {
  *alive_ = false;
  receive_deadline_.cancel();
  close();
}

void JavaAppletRuntime::DatagramSocket::send_to(net::Endpoint target,
                                                const std::string& bytes) {
  current_is_first_ = !used_before_;
  used_before_ = true;
  const sim::Duration pre =
      runtime_.pre_send(ProbeKind::kJavaUdp, current_is_first_);
  runtime_.browser().sim().scheduler().post_after(
      pre, [this, alive = alive_, target, bytes] {
        if (!*alive || !sock_) return;
        sock_->send_to(target, net::to_bytes(bytes));
      });
  if (!so_timeout_.is_zero()) {
    // The applet blocks in receive() after sending; SO_TIMEOUT bounds that
    // wait. Re-arm per send (each probe is one send+receive pair).
    receive_deadline_.cancel();
    receive_deadline_ = runtime_.browser().sim().scheduler().schedule_after(
        pre + so_timeout_, [this, alive = alive_] {
          if (!*alive) return;
          if (on_timeout_) on_timeout_();
        });
  }
}

void JavaAppletRuntime::DatagramSocket::close() {
  if (sock_) {
    runtime_.browser().host().udp_close(sock_->local_port());
    sock_.reset();
  }
}

}  // namespace bnm::browser

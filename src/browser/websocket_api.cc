#include "browser/websocket_api.h"

#include <utility>

namespace bnm::browser {

BrowserWebSocket::BrowserWebSocket(Browser& browser, net::Endpoint server,
                                   const std::string& path)
    : browser_{browser} {
  if (!browser_.profile().supports_websocket) {
    browser_.sim().scheduler().post_after(
        sim::Duration::millis(1), [this, alive = alive_] {
          if (!*alive) return;
          if (onerror_) onerror_("WebSocket is not supported by this browser");
        });
    return;
  }
  client_ = std::make_unique<ws::WebSocketClient>(browser_.host());
  client_->set_error_callback([this, alive = alive_](const std::string& err) {
    if (!*alive) return;
    if (onerror_) onerror_(err);
  });
  client_->connect(
      server, path,
      [this, alive = alive_](std::shared_ptr<ws::WebSocketConnection> conn) {
        if (!*alive) {
          conn->close();
          return;
        }
        conn_ = std::move(conn);
        ws::WebSocketConnection::Callbacks cbs;
        cbs.on_message = [this,
                          alive](const ws::MessageAssembler::Message& msg) {
          const sim::Duration dispatch = browser_.sample_recv_dispatch(
              ProbeKind::kWebSocket, current_is_first_);
          browser_.event_loop().post(
              dispatch, [this, alive, data = net::to_string(msg.data)] {
                if (!*alive) return;
                if (onmessage_) onmessage_(data);
              });
        };
        cbs.on_close = [this, alive](std::uint16_t code) {
          if (!*alive) return;
          if (onclose_) onclose_(code);
        };
        conn_->set_callbacks(std::move(cbs));
        browser_.event_loop().post(sim::Duration::micros(100),
                                   [this, alive] {
                                     if (!*alive) return;
                                     if (onopen_) onopen_();
                                   });
      });
}

BrowserWebSocket::~BrowserWebSocket() {
  *alive_ = false;
  if (conn_) {
    conn_->set_callbacks({});
    if (conn_->open()) conn_->close();
  }
}

void BrowserWebSocket::send(const std::string& data) {
  if (!conn_ || !conn_->open()) {
    if (onerror_) onerror_("send on closed WebSocket");
    return;
  }
  current_is_first_ = !used_before_;
  used_before_ = true;
  const sim::Duration pre =
      browser_.sample_pre_send(ProbeKind::kWebSocket, current_is_first_);
  browser_.sim().scheduler().post_after(pre, [this, alive = alive_, data] {
    if (!*alive || !conn_ || !conn_->open()) return;
    conn_->send_binary(net::to_bytes(data));
  });
}

void BrowserWebSocket::close() {
  if (conn_) conn_->close();
}

}  // namespace bnm::browser

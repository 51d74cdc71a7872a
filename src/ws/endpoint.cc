#include "ws/endpoint.h"

#include <utility>

#include "ws/base64.h"
#include "ws/sha1.h"

namespace bnm::ws {

std::string accept_key_for(std::string_view client_key) {
  const auto digest = sha1(std::string{client_key} + kHandshakeGuid);
  return base64_encode(digest.data(), digest.size());
}

// ---------------------------------------------------------------- connection

WebSocketConnection::WebSocketConnection(
    std::shared_ptr<net::TcpConnection> tcp, Role role, sim::Rng rng)
    : tcp_{std::move(tcp)}, role_{role}, rng_{rng} {}

void WebSocketConnection::send_frame(Frame frame) {
  if (!open_ && frame.opcode != Opcode::kClose) return;
  if (role_ == Role::kClient) {
    frame.masked = true;
    frame.masking_key = static_cast<std::uint32_t>(rng_.next_u64());
  }
  tcp_->send(frame.encode());
}

void WebSocketConnection::send_message(Opcode type,
                                       std::vector<std::uint8_t> payload) {
  ++messages_sent_;
  if (max_frame_payload_ == 0 || payload.size() <= max_frame_payload_) {
    Frame f;
    f.opcode = type;
    f.payload = std::move(payload);
    send_frame(std::move(f));
    return;
  }
  // Fragment: first frame carries the opcode, continuations follow, the
  // last one sets FIN (RFC 6455 5.4).
  std::size_t offset = 0;
  bool first = true;
  while (offset < payload.size()) {
    const std::size_t take =
        std::min(max_frame_payload_, payload.size() - offset);
    Frame f;
    f.opcode = first ? type : Opcode::kContinuation;
    f.fin = offset + take == payload.size();
    f.payload.assign(payload.begin() + static_cast<std::ptrdiff_t>(offset),
                     payload.begin() + static_cast<std::ptrdiff_t>(offset + take));
    send_frame(std::move(f));
    offset += take;
    first = false;
  }
}

void WebSocketConnection::send_text(const std::string& text) {
  send_message(Opcode::kText, {text.begin(), text.end()});
}

void WebSocketConnection::send_binary(std::vector<std::uint8_t> data) {
  send_message(Opcode::kBinary, std::move(data));
}

void WebSocketConnection::ping(std::vector<std::uint8_t> payload) {
  Frame f;
  f.opcode = Opcode::kPing;
  f.payload = std::move(payload);
  send_frame(std::move(f));
}

void WebSocketConnection::close(std::uint16_t code, const std::string& reason) {
  if (close_sent_) return;
  close_sent_ = true;
  Frame f;
  f.opcode = Opcode::kClose;
  f.payload = encode_close_payload(code, reason);
  send_frame(std::move(f));
  open_ = false;
  tcp_->close();
}

void WebSocketConnection::on_tcp_data(const net::Payload& bytes) {
  decoder_.feed(bytes);
  if (decoder_.failed()) {
    open_ = false;
    tcp_->abort();
    if (cbs_.on_close) cbs_.on_close(1002);  // protocol error
    return;
  }
  while (auto frame = decoder_.take()) {
    switch (frame->opcode) {
      case Opcode::kText:
      case Opcode::kBinary:
      case Opcode::kContinuation:
        if (auto msg = assembler_.add(*frame)) {
          ++messages_received_;
          if (cbs_.on_message) cbs_.on_message(*msg);
        }
        break;
      case Opcode::kPing: {
        Frame pong;
        pong.opcode = Opcode::kPong;
        pong.payload = frame->payload;
        send_frame(std::move(pong));
        break;
      }
      case Opcode::kPong:
        if (cbs_.on_pong) cbs_.on_pong(frame->payload);
        break;
      case Opcode::kClose: {
        const auto code = decode_close_code(frame->payload).value_or(1005);
        if (!close_sent_) {
          close_sent_ = true;
          Frame reply;
          reply.opcode = Opcode::kClose;
          reply.payload = frame->payload;
          send_frame(std::move(reply));
        }
        open_ = false;
        tcp_->close();
        if (cbs_.on_close) cbs_.on_close(code);
        break;
      }
    }
  }
}

void WebSocketConnection::on_tcp_closed() {
  if (!open_) return;
  open_ = false;
  if (cbs_.on_close) cbs_.on_close(1006);  // abnormal closure
}

// -------------------------------------------------------------------- client

WebSocketClient::WebSocketClient(net::Host& host)
    : host_{host}, rng_{host.sim().rng_for("ws-client/" + host.config().name)} {}

void WebSocketClient::connect(net::Endpoint server, const std::string& path,
                              OpenCallback on_open) {
  auto pending = std::make_shared<Pending>();

  std::uint8_t nonce[16];
  for (auto& b : nonce) b = static_cast<std::uint8_t>(rng_.next_u64());
  pending->key = base64_encode(nonce, sizeof nonce);

  net::TcpCallbacks cbs;
  cbs.on_connect = [alive = alive_, pending, server, path] {
    if (!*alive) return;
    http::HttpRequest req;
    req.method = "GET";
    req.target = path;
    req.headers.set("Host", server.to_string());
    req.headers.set("Upgrade", "websocket");
    req.headers.set("Connection", "Upgrade");
    req.headers.set("Sec-WebSocket-Key", pending->key);
    req.headers.set("Sec-WebSocket-Version", "13");
    pending->tcp->send(req.serialize());
  };
  cbs.on_data = [this, alive = alive_, pending, on_open = std::move(on_open)](
                    const net::Payload& bytes) mutable {
    if (pending->ws) {
      pending->ws->on_tcp_data(bytes);
      return;
    }
    if (!*alive) {
      pending->tcp->abort();
      return;
    }
    pending->parser.feed(bytes);
    if (pending->parser.failed()) {
      if (on_error_) on_error_("handshake parse error");
      pending->tcp->abort();
      return;
    }
    auto resp = pending->parser.take();
    if (!resp) return;
    if (resp->status != 101 ||
        resp->headers.get("Sec-WebSocket-Accept").value_or("") !=
            accept_key_for(pending->key)) {
      if (on_error_) on_error_("handshake rejected");
      pending->tcp->abort();
      return;
    }
    pending->ws = std::make_shared<WebSocketConnection>(
        pending->tcp, WebSocketConnection::Role::kClient,
        rng_.fork("conn"));
    on_open(pending->ws);
  };
  cbs.on_close = [pending] {
    if (pending->ws) pending->ws->on_tcp_closed();
  };
  cbs.on_reset = [this, alive = alive_, pending] {
    // A reset mid-handshake (or an aborted transport under faults) must
    // surface instead of leaving the opener waiting forever.
    if (pending->ws) {
      pending->ws->on_tcp_closed();
      return;
    }
    if (!*alive) return;
    if (on_error_) on_error_("connection reset");
  };
  pending->tcp = host_.tcp_connect(server, std::move(cbs));
}

WebSocketClient::~WebSocketClient() { *alive_ = false; }

// -------------------------------------------------------------------- server

WebSocketServer::WebSocketServer(net::Host& host, net::Port port,
                                 OpenCallback on_open)
    : host_{host}, port_{port}, on_open_{std::move(on_open)} {
  host_.tcp_listen(port_, [this](std::shared_ptr<net::TcpConnection> conn) {
    on_accept(std::move(conn));
  });
}

void WebSocketServer::on_accept(std::shared_ptr<net::TcpConnection> conn) {
  auto pending = std::make_shared<Pending>();
  pending->tcp = std::move(conn);
  net::TcpCallbacks cbs;
  cbs.on_data = [this, pending](const net::Payload& bytes) {
    if (pending->ws) {
      pending->ws->on_tcp_data(bytes);
      return;
    }
    pending->parser.feed(bytes);
    if (pending->parser.failed()) {
      pending->tcp->abort();
      return;
    }
    auto req = pending->parser.take();
    if (!req) return;
    const auto key = req->headers.get("Sec-WebSocket-Key");
    const bool is_upgrade =
        req->headers.get("Upgrade").has_value() && key.has_value();
    if (!is_upgrade) {
      http::HttpResponse bad = http::HttpResponse::make(400, "not a websocket");
      bad.headers.set("Connection", "close");
      pending->tcp->send(bad.serialize());
      pending->tcp->close();
      return;
    }
    http::HttpResponse resp;
    resp.status = 101;
    resp.reason = http::reason_phrase(101);
    resp.headers.set("Upgrade", "websocket");
    resp.headers.set("Connection", "Upgrade");
    resp.headers.set("Sec-WebSocket-Accept", accept_key_for(*key));
    resp.headers.set("Content-Length", "0");
    pending->tcp->send(resp.serialize());
    pending->ws = std::make_shared<WebSocketConnection>(
        pending->tcp, WebSocketConnection::Role::kServer,
        host_.sim().rng_for("ws-server-conn"));
    ++upgrades_;
    if (on_open_) on_open_(pending->ws);
  };
  cbs.on_close = [pending] {
    if (pending->ws) pending->ws->on_tcp_closed();
  };
  pending->tcp->set_callbacks(std::move(cbs));
}

}  // namespace bnm::ws

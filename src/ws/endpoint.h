// WebSocket endpoints over the simulated TCP stack: opening handshake
// (RFC 6455 section 4) plus the message-level API browsers expose.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "http/parser.h"
#include "net/host.h"
#include "ws/frame.h"

namespace bnm::ws {

/// RFC 6455 magic GUID appended to the client key before hashing.
inline constexpr const char* kHandshakeGuid =
    "258EAFA5-E914-47DA-95CA-C5AB0DC85B11";

/// Compute Sec-WebSocket-Accept for a Sec-WebSocket-Key.
std::string accept_key_for(std::string_view client_key);

/// An established WebSocket connection (either role). Client-role
/// connections mask outgoing frames, per the RFC.
class WebSocketConnection
    : public std::enable_shared_from_this<WebSocketConnection> {
 public:
  enum class Role { kClient, kServer };

  struct Callbacks {
    std::function<void(const MessageAssembler::Message&)> on_message;
    std::function<void(const std::vector<std::uint8_t>&)> on_pong;
    std::function<void(std::uint16_t code)> on_close;
  };

  WebSocketConnection(std::shared_ptr<net::TcpConnection> tcp, Role role,
                      sim::Rng rng);

  void set_callbacks(Callbacks cbs) { cbs_ = std::move(cbs); }

  /// Fragment outgoing messages into frames of at most this payload size
  /// (RFC 6455 5.4). 0 = never fragment (the default).
  void set_max_frame_payload(std::size_t bytes) { max_frame_payload_ = bytes; }

  void send_text(const std::string& text);
  void send_binary(std::vector<std::uint8_t> data);
  void ping(std::vector<std::uint8_t> payload = {});
  void close(std::uint16_t code = 1000, const std::string& reason = "");

  bool open() const { return open_; }
  std::uint64_t messages_sent() const { return messages_sent_; }
  std::uint64_t messages_received() const { return messages_received_; }

  /// Wire-level entry: bytes arrived on the underlying TCP connection.
  void on_tcp_data(const net::Payload& bytes);
  void on_tcp_closed();

 private:
  void send_frame(Frame frame);
  void send_message(Opcode type, std::vector<std::uint8_t> payload);

  std::shared_ptr<net::TcpConnection> tcp_;
  std::size_t max_frame_payload_ = 0;
  Role role_;
  sim::Rng rng_;
  Callbacks cbs_;
  FrameDecoder decoder_;
  MessageAssembler assembler_;
  bool open_ = true;
  bool close_sent_ = false;
  std::uint64_t messages_sent_ = 0;
  std::uint64_t messages_received_ = 0;
};

/// Client-side opening handshake.
class WebSocketClient {
 public:
  using OpenCallback = std::function<void(std::shared_ptr<WebSocketConnection>)>;
  using ErrorCallback = std::function<void(const std::string&)>;

  explicit WebSocketClient(net::Host& host);

  /// Handshakes still in flight are detached: their TCP callbacks become
  /// no-ops, so a client destroyed mid-handshake (a cancelled measurement
  /// run) is never called back.
  ~WebSocketClient();

  /// Open ws://server/path. `on_open` fires when the 101 handshake
  /// completes and the connection is ready for messages.
  void connect(net::Endpoint server, const std::string& path,
               OpenCallback on_open);
  void set_error_callback(ErrorCallback cb) { on_error_ = std::move(cb); }

 private:
  struct Pending {
    std::shared_ptr<net::TcpConnection> tcp;
    http::ResponseParser parser;
    std::string key;
    std::shared_ptr<WebSocketConnection> ws;
  };

  net::Host& host_;
  sim::Rng rng_;
  ErrorCallback on_error_;
  std::shared_ptr<bool> alive_ = std::make_shared<bool>(true);
};

/// Server-side upgrade endpoint bound to a host port.
class WebSocketServer {
 public:
  using OpenCallback = std::function<void(std::shared_ptr<WebSocketConnection>)>;

  WebSocketServer(net::Host& host, net::Port port, OpenCallback on_open);

  std::uint64_t upgrades_completed() const { return upgrades_; }

 private:
  struct Pending {
    std::shared_ptr<net::TcpConnection> tcp;
    http::RequestParser parser;
    std::shared_ptr<WebSocketConnection> ws;
  };

  void on_accept(std::shared_ptr<net::TcpConnection> conn);

  net::Host& host_;
  net::Port port_;
  OpenCallback on_open_;
  std::uint64_t upgrades_ = 0;
};

}  // namespace bnm::ws

// TCP edge paths: simultaneous close, out-of-order segment reassembly
// under reordering netem, delayed-ACK behaviour, and server-side HTTP
// pipelining on one connection.
#include <gtest/gtest.h>

#include "core/testbed.h"
#include "http/client.h"
#include "net_fixture.h"

namespace bnm::net {
namespace {

using test::TwoHostFixture;

class TcpEdge : public TwoHostFixture {};

TEST_F(TcpEdge, SimultaneousCloseReachesClosedOnBothSides) {
  std::shared_ptr<TcpConnection> server_conn;
  server->tcp_listen(9000, [&](std::shared_ptr<TcpConnection> conn) {
    server_conn = conn;
  });
  std::shared_ptr<TcpConnection> client_conn;
  TcpCallbacks cbs;
  client_conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();
  ASSERT_TRUE(server_conn && client_conn);
  ASSERT_TRUE(client_conn->established());

  // Close both ends in the same instant: FINs cross in flight.
  client_conn->close();
  server_conn->close();
  run_all();
  EXPECT_EQ(client_conn->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(server_conn->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(client->open_connections(), 0u);
  EXPECT_EQ(server->open_connections(), 0u);
}

TEST_F(TcpEdge, DelayedAckFiresForUnansweredData) {
  // Server that never replies: the client's data must still get ACKed by
  // the delayed-ACK timer (500 us default), not retransmitted.
  std::shared_ptr<TcpConnection> server_conn;
  server->tcp_listen(9000, [&](std::shared_ptr<TcpConnection> conn) {
    server_conn = conn;
  });
  std::shared_ptr<TcpConnection> conn;
  TcpCallbacks cbs;
  cbs.on_connect = [&] { conn->send(std::string{"silent"}); };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_for(sim::Duration::millis(100));
  EXPECT_EQ(conn->retransmissions(), 0u);
  // A pure ACK for the data appeared at the client.
  bool pure_ack_seen = false;
  for (std::size_t i = 0; i < client->capture().size(); ++i) {
    const Packet& p = client->capture().packet(i);
    if (client->capture().direction(i) == CaptureDirection::kInbound &&
        p.is_pure_ack() && p.ack > 1) {
      pure_ack_seen = true;
    }
  }
  EXPECT_TRUE(pure_ack_seen);
}

TEST(TcpReordering, ReassemblyDeliversInOrderUnderReorderingNetem) {
  // Server egress netem with reordering: TCP segments of a bulk response
  // arrive out of order; the receiver's reassembly must hand the
  // application a byte-exact, in-order stream.
  core::Testbed::Config cfg;
  cfg.server_delay = sim::Duration::millis(10);
  cfg.server_jitter = sim::Duration::millis(15);
  cfg.allow_reorder = true;
  core::Testbed tb{cfg};

  http::HttpClient client{tb.client()};
  http::HttpRequest req;
  req.method = "GET";
  req.target = "/payload?size=200000";
  std::optional<http::HttpResponse> got;
  client.request(tb.http_endpoint(), req,
                 [&](http::HttpResponse r, http::HttpClient::TransferInfo) {
                   got = std::move(r);
                 });
  tb.sim().scheduler().run();

  ASSERT_TRUE(got.has_value());
  EXPECT_EQ(got->status, 200);
  ASSERT_EQ(got->body.size(), 200000u);
  EXPECT_EQ(got->body, std::string(200000, 'x'));

  // Sanity: the reordering actually happened on the wire (some inbound
  // data segment has a smaller seq than its predecessor).
  bool reordered = false;
  std::uint32_t prev_seq = 0;
  bool first = true;
  for (std::size_t i = 0; i < tb.client().capture().size(); ++i) {
    const Packet& p = tb.client().capture().packet(i);
    if (tb.client().capture().direction(i) != CaptureDirection::kInbound ||
        !p.carries_data()) {
      continue;
    }
    if (!first && p.seq < prev_seq) reordered = true;
    prev_seq = p.seq;
    first = false;
  }
  EXPECT_TRUE(reordered);
}

TEST(HttpPipelining, ServerAnswersBackToBackRequestsInOrder) {
  // Two requests written into one connection before the first response:
  // the server must answer both, in order, on the same connection.
  core::Testbed::Config cfg;
  core::Testbed tb{cfg};

  std::string received;
  std::shared_ptr<TcpConnection> conn;
  TcpCallbacks cbs;
  cbs.on_connect = [&] {
    http::HttpRequest r1;
    r1.method = "GET";
    r1.target = "/echo";
    http::HttpRequest r2;
    r2.method = "GET";
    r2.target = "/payload?size=5";
    conn->send(r1.serialize() + r2.serialize());
  };
  cbs.on_data = [&](const Payload& d) {
    received += to_string(d);
  };
  conn = tb.client().tcp_connect(tb.http_endpoint(), std::move(cbs));
  tb.sim().scheduler().run();

  http::ResponseParser parser;
  parser.feed(received);
  const auto first = parser.take();
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(first->body, "pong");
  const auto second = parser.take();
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(second->body, "xxxxx");
}

TEST(HttpBadRequest, MalformedInputGets400AndClose) {
  core::Testbed::Config cfg;
  core::Testbed tb{cfg};
  std::string received;
  bool closed = false;
  std::shared_ptr<TcpConnection> conn;
  TcpCallbacks cbs;
  cbs.on_connect = [&] { conn->send(std::string{"THIS IS NOT HTTP\r\n\r\n"}); };
  cbs.on_data = [&](const Payload& d) {
    received += to_string(d);
  };
  cbs.on_close = [&] { closed = true; };
  conn = tb.client().tcp_connect(tb.http_endpoint(), std::move(cbs));
  tb.sim().scheduler().run();
  EXPECT_NE(received.find("400"), std::string::npos);
  EXPECT_TRUE(closed);
}

}  // namespace
}  // namespace bnm::net

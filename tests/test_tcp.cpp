#include <gtest/gtest.h>

#include <vector>

#include "net_fixture.h"

namespace bnm::net {
namespace {

using test::TwoHostFixture;

class TcpTest : public TwoHostFixture {
 protected:
  /// Start an echo listener on the server.
  void listen_echo(Port port = 9000) {
    server->tcp_listen(port, [this](std::shared_ptr<TcpConnection> conn) {
      accepted.push_back(conn);
      TcpCallbacks cbs;
      auto weak = std::weak_ptr<TcpConnection>(conn);
      cbs.on_data = [weak](const Payload& d) {
        if (auto c = weak.lock()) c->send(d);
      };
      cbs.on_close = [weak] {
        if (auto c = weak.lock()) c->close();
      };
      conn->set_callbacks(std::move(cbs));
    });
  }

  std::vector<std::shared_ptr<TcpConnection>> accepted;
};

TEST_F(TcpTest, HandshakeEstablishesBothEnds) {
  listen_echo();
  bool connected = false;
  TcpCallbacks cbs;
  cbs.on_connect = [&] { connected = true; };
  auto conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  EXPECT_EQ(conn->state(), TcpConnection::State::kSynSent);
  run_all();
  EXPECT_TRUE(connected);
  EXPECT_EQ(conn->state(), TcpConnection::State::kEstablished);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0]->state(), TcpConnection::State::kEstablished);
}

TEST_F(TcpTest, HandshakeIsThreePackets) {
  listen_echo();
  client->tcp_connect(server_ep(9000), {});
  run_all();
  const auto& cap = client->capture();
  ASSERT_GE(cap.size(), 3u);
  EXPECT_TRUE(cap.packet(0).flags.syn);
  EXPECT_FALSE(cap.packet(0).flags.ack);
  EXPECT_TRUE(cap.packet(1).flags.syn);
  EXPECT_TRUE(cap.packet(1).flags.ack);
  EXPECT_TRUE(cap.packet(2).is_pure_ack());
}

TEST_F(TcpTest, EchoRoundtripDeliversPayload) {
  listen_echo();
  std::string received;
  TcpCallbacks cbs;
  cbs.on_data = [&](const Payload& d) {
    received += to_string(d);
  };
  std::shared_ptr<TcpConnection> conn;
  cbs.on_connect = [&] { conn->send(std::string{"hello tcp"}); };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();
  EXPECT_EQ(received, "hello tcp");
  EXPECT_EQ(conn->bytes_delivered(), 9u);
}

TEST_F(TcpTest, DataQueuedBeforeConnectFlushesAfterHandshake) {
  listen_echo();
  std::string received;
  TcpCallbacks cbs;
  cbs.on_data = [&](const Payload& d) {
    received += to_string(d);
  };
  auto conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  conn->send(std::string{"early"});  // still SYN_SENT
  run_all();
  EXPECT_EQ(received, "early");
}

TEST_F(TcpTest, LargeSendIsSegmentedByMss) {
  listen_echo();
  const std::string big(5000, 'x');
  std::size_t received = 0;
  TcpCallbacks cbs;
  cbs.on_data = [&](const Payload& d) { received += d.size(); };
  std::shared_ptr<TcpConnection> conn;
  cbs.on_connect = [&] { conn->send(big); };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();
  EXPECT_EQ(received, 5000u);

  // Count outbound data segments: ceil(5000 / 1460) = 4.
  std::size_t data_segments = 0;
  std::size_t oversized = 0;
  for (std::size_t i = 0; i < client->capture().size(); ++i) {
    const Packet& p = client->capture().packet(i);
    if (client->capture().direction(i) == CaptureDirection::kOutbound &&
        p.carries_data()) {
      ++data_segments;
      if (p.payload.size() > 1460) ++oversized;
    }
  }
  EXPECT_EQ(data_segments, 4u);
  EXPECT_EQ(oversized, 0u);
}

TEST_F(TcpTest, ResponseCarriesPiggybackAck) {
  listen_echo();
  std::shared_ptr<TcpConnection> conn;
  TcpCallbacks cbs;
  cbs.on_connect = [&] { conn->send(std::string{"ping"}); };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();
  // Find the server's echo segment: it must ACK the request bytes.
  bool found = false;
  for (std::size_t i = 0; i < client->capture().size(); ++i) {
    const Packet& p = client->capture().packet(i);
    if (client->capture().direction(i) == CaptureDirection::kInbound &&
        p.carries_data()) {
      EXPECT_TRUE(p.flags.ack);
      found = true;
    }
  }
  EXPECT_TRUE(found);
}

TEST_F(TcpTest, ActiveCloseRunsFullTeardown) {
  listen_echo();
  std::shared_ptr<TcpConnection> conn;
  TcpCallbacks cbs;
  cbs.on_connect = [&] { conn->close(); };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();
  EXPECT_EQ(conn->state(), TcpConnection::State::kClosed);
  ASSERT_EQ(accepted.size(), 1u);
  EXPECT_EQ(accepted[0]->state(), TcpConnection::State::kClosed);
  EXPECT_EQ(client->open_connections(), 0u);
  EXPECT_EQ(server->open_connections(), 0u);
}

TEST_F(TcpTest, CloseAfterSendDeliversEverythingFirst) {
  listen_echo();
  std::string received;
  std::shared_ptr<TcpConnection> conn;
  TcpCallbacks cbs;
  cbs.on_data = [&](const Payload& d) {
    received += to_string(d);
  };
  cbs.on_connect = [&] {
    conn->send(std::string(3000, 'q'));
    conn->close();  // FIN must wait for the buffer to drain
  };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();
  EXPECT_EQ(received.size(), 3000u);
  EXPECT_EQ(conn->state(), TcpConnection::State::kClosed);
}

TEST_F(TcpTest, PeerCloseNotifiesApplication) {
  server->tcp_listen(9000, [](std::shared_ptr<TcpConnection> conn) {
    // Server closes immediately after accepting.
    conn->close();
  });
  bool closed = false;
  TcpCallbacks cbs;
  cbs.on_close = [&] { closed = true; };
  client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();
  EXPECT_TRUE(closed);
}

TEST_F(TcpTest, ConnectToClosedPortGetsReset) {
  bool reset = false;
  TcpCallbacks cbs;
  cbs.on_reset = [&] { reset = true; };
  auto conn = client->tcp_connect(server_ep(4444), std::move(cbs));
  run_all();
  EXPECT_TRUE(reset);
  EXPECT_EQ(conn->state(), TcpConnection::State::kClosed);
}

TEST_F(TcpTest, AbortSendsRst) {
  listen_echo();
  std::shared_ptr<TcpConnection> conn;
  bool server_reset = false;
  server->tcp_listen(9001, [&](std::shared_ptr<TcpConnection> c) {
    TcpCallbacks cbs;
    cbs.on_reset = [&] { server_reset = true; };
    c->set_callbacks(std::move(cbs));
  });
  TcpCallbacks cbs;
  cbs.on_connect = [&] { conn->abort(); };
  conn = client->tcp_connect(server_ep(9001), std::move(cbs));
  run_all();
  EXPECT_TRUE(server_reset);
  EXPECT_EQ(conn->state(), TcpConnection::State::kClosed);
}

TEST_F(TcpTest, CountersTrackSegments) {
  listen_echo();
  std::shared_ptr<TcpConnection> conn;
  TcpCallbacks cbs;
  cbs.on_connect = [&] { conn->send(std::string{"abc"}); };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();
  EXPECT_GE(conn->segments_sent(), 3u);  // SYN + ACK + data
  EXPECT_EQ(conn->retransmissions(), 0u);
}

class LossyTcpTest : public TcpTest {
 protected:
  void SetUp() override {
    build();
    // 20% loss client->switch direction.
    net::Link::Config lc;
    lc.loss_probability = 0.2;
    lc.name = "lossy";
    lossy_link = std::make_unique<Link>(*sim, lc);
    // Rebuild topology with the lossy link in place of link1.
    client = std::make_unique<Host>(*sim, [&] {
      Host::Config c;
      c.name = "client2";
      c.ip = IpAddress{10, 0, 0, 1};
      return c;
    }());
    fabric = std::make_unique<SwitchFabric>(*sim);
    client->attach_link(lossy_link.get(), Link::Side::kA);
    const auto p0 = fabric->add_port(lossy_link.get(), Link::Side::kB);
    const auto p1 = fabric->add_port(link2.get(), Link::Side::kA);
    fabric->learn(client->ip(), p0);
    fabric->learn(server->ip(), p1);
  }
  std::unique_ptr<Link> lossy_link;
};

TEST_F(LossyTcpTest, RetransmissionRecoversFromLoss) {
  listen_echo();
  std::size_t received = 0;
  std::shared_ptr<TcpConnection> conn;
  TcpCallbacks cbs;
  cbs.on_data = [&](const Payload& d) { received += d.size(); };
  cbs.on_connect = [&] { conn->send(std::string(20000, 'r')); };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  // Allow plenty of simulated time for RTO-driven recovery.
  run_for(sim::Duration::seconds(120));
  EXPECT_EQ(received, 20000u);
  EXPECT_GT(conn->retransmissions(), 0u);
}

}  // namespace
}  // namespace bnm::net

#include <gtest/gtest.h>

#include <optional>

#include "net_fixture.h"

namespace bnm::net {
namespace {

using test::TwoHostFixture;

class UdpTest : public TwoHostFixture {};

TEST_F(UdpTest, EchoRoundtrip) {
  std::shared_ptr<UdpSocket> srv;
  srv = server->udp_open(9001, [&](Endpoint src, const Payload& d) {
    srv->send_to(src, d);
  });

  std::string got;
  Endpoint from;
  auto cli = client->udp_open([&](Endpoint src, const Payload& d) {
    got = to_string(d);
    from = src;
  });
  cli->send_to(server_ep(9001), to_bytes("probe"));
  run_all();
  EXPECT_EQ(got, "probe");
  EXPECT_EQ(from, server_ep(9001));
  EXPECT_EQ(cli->datagrams_sent(), 1u);
  EXPECT_EQ(cli->datagrams_received(), 1u);
  EXPECT_EQ(srv->datagrams_received(), 1u);
}

TEST_F(UdpTest, UnboundPortSilentlyDrops) {
  auto cli = client->udp_open([](Endpoint, const Payload&) {
    FAIL() << "nothing should come back";
  });
  cli->send_to(server_ep(4242), to_bytes("void"));
  run_all();
  EXPECT_EQ(cli->datagrams_received(), 0u);
}

TEST_F(UdpTest, EphemeralPortsAreDistinct) {
  auto s1 = client->udp_open([](Endpoint, const Payload&) {});
  auto s2 = client->udp_open([](Endpoint, const Payload&) {});
  EXPECT_NE(s1->local_port(), s2->local_port());
  EXPECT_GE(s1->local_port(), 49152);
}

TEST_F(UdpTest, RttMatchesTopologyDelays) {
  std::shared_ptr<UdpSocket> srv;
  srv = server->udp_open(9001, [&](Endpoint src, const Payload& d) {
    srv->send_to(src, d);
  });
  sim::TimePoint sent, got;
  auto cli = client->udp_open([&](Endpoint, const Payload&) {
    got = sim->now();
  });
  sent = sim->now();
  cli->send_to(server_ep(9001), to_bytes("t"));
  run_all();
  const double rtt_us = (got - sent).us_f();
  // 2x (stack 10us *2 + two links' serialization ~6us + 2x prop 5us + switch 3us)
  EXPECT_GT(rtt_us, 40.0);
  EXPECT_LT(rtt_us, 200.0);
}

class NetemHostTest : public TwoHostFixture {
 protected:
  void SetUp() override {
    server_netem_ms = 50;
    build();
  }
};

TEST_F(NetemHostTest, ServerEgressDelayShapesRtt) {
  std::shared_ptr<UdpSocket> srv;
  srv = server->udp_open(9001, [&](Endpoint src, const Payload& d) {
    srv->send_to(src, d);
  });
  sim::TimePoint sent, got;
  auto cli = client->udp_open([&](Endpoint, const Payload&) {
    got = sim->now();
  });
  sent = sim->now();
  cli->send_to(server_ep(9001), to_bytes("t"));
  run_all();
  const double rtt_ms = (got - sent).ms_f();
  EXPECT_GT(rtt_ms, 50.0);
  EXPECT_LT(rtt_ms, 51.0);
}

TEST_F(NetemHostTest, CaptureSitsOutsideTheStackDelay) {
  // The capture tap timestamps at the NIC; host stack delay (10us each
  // way) must not appear between a packet's wire arrival and its record.
  std::shared_ptr<UdpSocket> srv;
  srv = server->udp_open(9001, [&](Endpoint src, const Payload& d) {
    srv->send_to(src, d);
  });
  auto cli = client->udp_open([](Endpoint, const Payload&) {});
  cli->send_to(server_ep(9001), to_bytes("x"));
  run_all();
  const PacketCapture& cap = client->capture();
  std::optional<sim::TimePoint> out, in;
  for (std::size_t i = 0; i < cap.size(); ++i) {
    if (!cap.packet(i).carries_data()) continue;
    auto& first =
        cap.direction(i) == CaptureDirection::kOutbound ? out : in;
    if (!first) first = cap.timestamp(i);
  }
  ASSERT_TRUE(out && in);
  const double net_rtt = (*in - *out).ms_f();
  EXPECT_GT(net_rtt, 50.0);
  EXPECT_LT(net_rtt, 50.5);
}

TEST_F(UdpTest, HostIgnoresPacketsForOtherIps) {
  // Deliver a packet addressed elsewhere straight to the client NIC: the
  // capture sees it (promiscuous tap), the stack must drop it.
  Packet p;
  p.protocol = Protocol::kUdp;
  p.src = {IpAddress{10, 0, 0, 9}, 1};
  p.dst = {IpAddress{10, 0, 0, 77}, 9001};
  bool delivered = false;
  auto sock = client->udp_open(9001, [&](Endpoint, const Payload&) {
    delivered = true;
  });
  client->handle_packet(p);
  run_all();
  EXPECT_FALSE(delivered);
  EXPECT_EQ(client->capture().size(), 1u);
}

}  // namespace
}  // namespace bnm::net

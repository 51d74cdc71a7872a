#include <gtest/gtest.h>

#include <memory>
#include <set>

#include "core/testbed.h"
#include "http/client.h"
#include "sim/arena.h"

namespace bnm::core {
namespace {

using browser::OsId;

TEST(TestbedTest, EndpointsMatchConfig) {
  Testbed::Config cfg;
  Testbed tb{cfg};
  EXPECT_EQ(tb.http_endpoint().port, 80);
  EXPECT_EQ(tb.tcp_echo_endpoint().port, 9000);
  EXPECT_EQ(tb.udp_echo_endpoint().port, 9001);
  EXPECT_EQ(tb.ws_endpoint().port, 8088);
  EXPECT_EQ(tb.http_endpoint().ip.to_string(), "10.0.0.2");
  EXPECT_EQ(tb.client().ip().to_string(), "10.0.0.1");
}

TEST(TestbedTest, HttpRttIncludesServerDelay) {
  Testbed::Config cfg;
  cfg.server_delay = sim::Duration::millis(50);
  Testbed tb{cfg};
  http::HttpClient client{tb.client()};
  http::HttpRequest req;
  req.method = "GET";
  req.target = "/echo";
  sim::TimePoint done;
  const sim::TimePoint start = tb.sim().now();
  client.request(tb.http_endpoint(), req,
                 [&](http::HttpResponse r, http::HttpClient::TransferInfo) {
                   EXPECT_EQ(r.body, "pong");
                   done = tb.sim().now();
                 });
  tb.sim().scheduler().run();
  // Handshake (1 delay) + request/response (1 delay) >= 100 ms.
  EXPECT_GT(done - start, sim::Duration::millis(100));
  EXPECT_LT(done - start, sim::Duration::millis(105));
}

TEST(TestbedTest, CustomServerDelayHonored) {
  Testbed::Config cfg;
  cfg.server_delay = sim::Duration::millis(10);
  Testbed tb{cfg};
  ASSERT_NE(tb.server().egress_netem(), nullptr);
  EXPECT_EQ(tb.server().egress_netem()->config().delay,
            sim::Duration::millis(10));
}

TEST(TestbedTest, ClientCaptureEnabledServerCaptureOff) {
  Testbed::Config cfg;
  Testbed tb{cfg};
  http::HttpClient client{tb.client()};
  http::HttpRequest req;
  req.method = "GET";
  req.target = "/echo";
  client.request(tb.http_endpoint(), req,
                 [](http::HttpResponse, http::HttpClient::TransferInfo) {});
  tb.sim().scheduler().run();
  EXPECT_GT(tb.client().capture().size(), 0u);
  EXPECT_EQ(tb.server().capture().size(), 0u);
}

TEST(TestbedTest, LaunchBrowserSessionsAreIndependent) {
  Testbed::Config cfg;
  cfg.client_os = OsId::kWindows7;
  Testbed tb{cfg};
  const auto profile =
      browser::make_profile(browser::BrowserId::kChrome, OsId::kWindows7);
  auto b1 = tb.launch_browser(profile, 0);
  auto b2 = tb.launch_browser(profile, 1);
  // Separate HTTP stacks (pools), shared machine clocks.
  EXPECT_NE(&b1->http(), &b2->http());
  EXPECT_EQ(&b1->clock(browser::ClockKind::kJavaDate),
            &b2->clock(browser::ClockKind::kJavaDate));
}

TEST(TestbedTest, ClocksFollowClientOs) {
  Testbed::Config w;
  w.client_os = OsId::kWindows7;
  Testbed tbw{w};
  std::set<std::int64_t> granules;
  for (double s = 0; s < 3600; s += 11) {
    granules.insert(tbw.clocks()
                        .java_date()
                        .granularity_at(sim::TimePoint::epoch() +
                                        sim::Duration::from_seconds_f(s))
                        .ns());
  }
  EXPECT_EQ(granules.size(), 2u);
}

// A packet in flight rides in its hop event, so tearing a testbed down
// mid-flight must release every copy of its payload. Two bursts of UDP
// echo datagrams, 2 us apart on 1 Gb/s links, put copies in every stage at
// the teardown instant: burst B fills the client stack, client link,
// switch, server link, the server's ingress faults and its stack; burst A,
// 50 ms older, fills the +50 ms netem and, past it, the egress faults,
// both links, the switch and the client stack on the way back. Burst B's
// not-yet-fired sends hold copies too.
TEST(TestbedTest, TeardownReleasesPacketsInFlight) {
  ASSERT_EQ(sim::Arena::current(), nullptr);  // a heap buffer, not arena
  const net::Payload payload{std::string(100, 'x')};
  {
    Testbed::Config cfg;
    cfg.bandwidth_bps = 1e9;
    cfg.capture_at_server = true;
    net::FaultPlan to_server;
    to_server.duplicate_probability = 0.2;
    cfg.faults_to_server = to_server;
    net::FaultPlan from_server;
    from_server.loss_probability = 0.05;
    cfg.faults_from_server = from_server;
    Testbed tb{cfg};
    std::size_t received = 0;
    auto sock = tb.client().udp_open(
        [&received](net::Endpoint, const net::Payload&) { ++received; });
    auto& sched = tb.sim().scheduler();
    const sim::TimePoint t0 = tb.sim().now();
    for (const sim::Duration burst :
         {sim::Duration::zero(), sim::Duration::millis(50)}) {
      for (int i = 0; i < 100; ++i) {
        sched.post_at(t0 + burst + sim::Duration::micros(2 * i),
                      [&tb, sock, payload] {
                        sock->send_to(tb.udp_echo_endpoint(), payload);
                      });
      }
    }
    sched.run_until(t0 + sim::Duration::micros(50100));

    const auto count = [](const net::PacketCapture& cap,
                          net::CaptureDirection dir) {
      std::size_t n = 0;
      for (std::size_t i = 0; i < cap.size(); ++i) n += cap.direction(i) == dir;
      return n;
    };
    const std::size_t client_out =
        count(tb.client().capture(), net::CaptureDirection::kOutbound);
    const std::size_t client_in =
        count(tb.client().capture(), net::CaptureDirection::kInbound);
    const std::size_t server_in =
        count(tb.server().capture(), net::CaptureDirection::kInbound);
    const std::size_t server_out =
        count(tb.server().capture(), net::CaptureDirection::kOutbound);
    const net::FaultCounters& in_faults = tb.faults_to_server()->counters();
    const net::FaultCounters& out_faults = tb.faults_from_server()->counters();
    EXPECT_GT(sock->datagrams_sent(), client_out);  // client stack, out
    EXPECT_GT(client_out, in_faults.seen);  // client link, switch, server link
    EXPECT_GT(in_faults.duplicated, 0u);
    EXPECT_EQ(in_faults.forwarded, server_in);
    EXPECT_GT(server_in, server_out);            // server stack, both ways
    EXPECT_GT(server_out, out_faults.seen);      // netem
    EXPECT_GT(out_faults.iid_losses, 0u);
    EXPECT_GT(out_faults.forwarded, client_in);  // links and switch back
    EXPECT_GT(client_in, received);              // client stack, in
    EXPECT_GT(payload.buffer_use_count(), 100);
  }
  EXPECT_EQ(payload.buffer_use_count(), 1);
}

}  // namespace
}  // namespace bnm::core

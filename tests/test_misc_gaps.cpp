// Gap-filling tests: stray-segment RST behaviour, profile sampling
// statistics, and Simulation RNG stream independence.
#include <gtest/gtest.h>

#include <algorithm>

#include "browser/browser.h"
#include "core/testbed.h"
#include "net_fixture.h"

namespace bnm {
namespace {

using test::TwoHostFixture;

class StrayTcp : public TwoHostFixture {};

TEST_F(StrayTcp, DataToUnknownConnectionGetsRst) {
  // Inject a non-SYN segment for a connection the server never had.
  net::Packet stray;
  stray.protocol = net::Protocol::kTcp;
  stray.src = {client->ip(), 55555};
  stray.dst = server_ep(9000);
  stray.flags.ack = true;
  stray.flags.psh = true;
  stray.seq = 1000;
  stray.ack = 2000;
  stray.payload = net::to_bytes("ghost");

  bool got_rst = false;
  // Watch the client capture for the RST coming back.
  client->tcp_listen(55555, [](std::shared_ptr<net::TcpConnection>) {});
  // Send via a raw path: use the client's send_packet plumbing.
  client->send_packet(stray);
  run_all();
  for (std::size_t i = 0; i < client->capture().size(); ++i) {
    const net::Packet& p = client->capture().packet(i);
    if (client->capture().direction(i) == net::CaptureDirection::kInbound &&
        p.flags.rst) {
      got_rst = true;
      // RFC-style: RST acks the stray segment's payload.
      EXPECT_EQ(p.ack, 1000u + 5u);
    }
  }
  EXPECT_TRUE(got_rst);
}

TEST_F(StrayTcp, RstIsNotAnsweredWithRst) {
  net::Packet rst;
  rst.protocol = net::Protocol::kTcp;
  rst.src = {client->ip(), 55556};
  rst.dst = server_ep(9000);
  rst.flags.rst = true;
  client->send_packet(rst);
  run_all();
  for (std::size_t i = 0; i < client->capture().size(); ++i) {
    EXPECT_NE(client->capture().direction(i) ==
                      net::CaptureDirection::kInbound &&
                  client->capture().packet(i).flags.rst,
              true)
        << "RST storm: an RST was answered with an RST";
  }
}

TEST(ProfileSampling, FlashOperaFirstUseMedianMatchesTable3Arithmetic) {
  // Sampling the Opera Flash GET model: warm medians ~20 ms, first-use
  // extra ~26 ms - the Table 3 arithmetic baked into the calibration.
  core::Testbed::Config cfg;
  core::Testbed tb{cfg};
  auto b = tb.launch_browser(
      browser::make_profile(browser::BrowserId::kOpera,
                            browser::OsId::kWindows7),
      0);
  std::vector<double> warm, first;
  for (int i = 0; i < 4000; ++i) {
    warm.push_back(
        (b->sample_pre_send(browser::ProbeKind::kFlashGet, false) +
         b->sample_recv_dispatch(browser::ProbeKind::kFlashGet, false))
            .ms_f());
    first.push_back(
        b->sample_pre_send(browser::ProbeKind::kFlashGet, true).ms_f());
  }
  std::nth_element(warm.begin(), warm.begin() + warm.size() / 2, warm.end());
  std::nth_element(first.begin(), first.begin() + first.size() / 2,
                   first.end());
  EXPECT_NEAR(warm[warm.size() / 2], 20.0, 4.0);
  // first sample = pre_send + first_use ~ 8 + 26.
  EXPECT_NEAR(first[first.size() / 2], 34.0, 6.0);
}

TEST(SimulationRng, StreamsAreIndependentAndStable) {
  sim::Simulation a{7};
  sim::Simulation b{7};
  auto r1 = a.rng_for("component-x");
  auto r2 = b.rng_for("component-x");
  EXPECT_EQ(r1.next_u64(), r2.next_u64());  // same seed+label = same stream
  auto r3 = a.rng_for("component-y");
  auto r4 = a.rng_for("component-x");
  EXPECT_NE(r3.next_u64(), r4.next_u64());  // labels separate streams
}

TEST(BrowserSessions, DistinctSessionsSampleDifferently) {
  core::Testbed::Config cfg;
  core::Testbed tb{cfg};
  const auto profile =
      browser::make_profile(browser::BrowserId::kChrome, browser::OsId::kUbuntu);
  auto s1 = tb.launch_browser(profile, 1);
  auto s2 = tb.launch_browser(profile, 2);
  bool differ = false;
  for (int i = 0; i < 8; ++i) {
    if (s1->sample_pre_send(browser::ProbeKind::kXhrGet, false) !=
        s2->sample_pre_send(browser::ProbeKind::kXhrGet, false)) {
      differ = true;
    }
  }
  EXPECT_TRUE(differ);
}

}  // namespace
}  // namespace bnm

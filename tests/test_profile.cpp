#include <gtest/gtest.h>

#include <stdexcept>

#include "browser/profile.h"

namespace bnm::browser {
namespace {

TEST(PaperCases, EightCasesInFigureOrder) {
  const auto cases = paper_cases();
  ASSERT_EQ(cases.size(), 8u);
  EXPECT_EQ(cases[0].label(), "C (U)");
  EXPECT_EQ(cases[3].label(), "C (W)");
  EXPECT_EQ(cases[5].label(), "IE (W)");
  EXPECT_EQ(cases[7].label(), "S (W)");
}

TEST(CaseSupported, Table2Matrix) {
  EXPECT_TRUE(case_supported(BrowserId::kChrome, OsId::kUbuntu));
  EXPECT_TRUE(case_supported(BrowserId::kSafari, OsId::kWindows7));
  EXPECT_FALSE(case_supported(BrowserId::kIe, OsId::kUbuntu));
  EXPECT_FALSE(case_supported(BrowserId::kSafari, OsId::kUbuntu));
}

TEST(MakeProfile, ThrowsOutsideMatrix) {
  EXPECT_THROW(make_profile(BrowserId::kIe, OsId::kUbuntu),
               std::invalid_argument);
  EXPECT_THROW(make_profile(BrowserId::kSafari, OsId::kUbuntu),
               std::invalid_argument);
}

TEST(MakeProfile, WebSocketSupportMatchesTable2) {
  EXPECT_FALSE(make_profile(BrowserId::kIe, OsId::kWindows7).supports_websocket);
  EXPECT_FALSE(
      make_profile(BrowserId::kSafari, OsId::kWindows7).supports_websocket);
  EXPECT_TRUE(
      make_profile(BrowserId::kChrome, OsId::kWindows7).supports_websocket);
  EXPECT_TRUE(make_profile(BrowserId::kOpera, OsId::kUbuntu).supports_websocket);
}

TEST(MakeProfile, VersionsMatchTable2) {
  const auto cw = make_profile(BrowserId::kChrome, OsId::kWindows7);
  EXPECT_EQ(cw.browser_version, "23.0");
  EXPECT_EQ(cw.flash_version, "11.7.700");
  EXPECT_EQ(cw.java_version, "1.7.0");
  const auto cu = make_profile(BrowserId::kChrome, OsId::kUbuntu);
  EXPECT_EQ(cu.flash_version, "11.5.31");
  EXPECT_EQ(cu.java_version, "1.6.0");
  EXPECT_EQ(make_profile(BrowserId::kIe, OsId::kWindows7).browser_version,
            "9.0.8");
}

TEST(MakeProfile, OperaConnectionPolicyQuirks) {
  const auto opera = make_profile(BrowserId::kOpera, OsId::kWindows7);
  EXPECT_TRUE(opera.policy.flash_first_request_new_connection);
  EXPECT_TRUE(opera.policy.flash_post_always_new_connection);
  const auto chrome = make_profile(BrowserId::kChrome, OsId::kWindows7);
  EXPECT_FALSE(chrome.policy.flash_first_request_new_connection);
  EXPECT_FALSE(chrome.policy.flash_post_always_new_connection);
}

TEST(MakeProfile, SafariPluginNoiseOnlyOnSafariWindows) {
  EXPECT_TRUE(make_profile(BrowserId::kSafari, OsId::kWindows7)
                  .java_date_warm_noise.has_value());
  EXPECT_FALSE(make_profile(BrowserId::kChrome, OsId::kWindows7)
                   .java_date_warm_noise.has_value());
}

TEST(ClockFor, MapsTechnologiesToClocks) {
  const auto p = make_profile(BrowserId::kChrome, OsId::kWindows7);
  EXPECT_EQ(p.clock_for(ProbeKind::kXhrGet, false), ClockKind::kJsDate);
  EXPECT_EQ(p.clock_for(ProbeKind::kDom, false), ClockKind::kJsDate);
  EXPECT_EQ(p.clock_for(ProbeKind::kWebSocket, false), ClockKind::kJsDate);
  EXPECT_EQ(p.clock_for(ProbeKind::kFlashGet, false), ClockKind::kFlashDate);
  EXPECT_EQ(p.clock_for(ProbeKind::kFlashSocket, false), ClockKind::kFlashDate);
  EXPECT_EQ(p.clock_for(ProbeKind::kJavaGet, false), ClockKind::kJavaDate);
  EXPECT_EQ(p.clock_for(ProbeKind::kJavaSocket, true), ClockKind::kJavaNano);
  EXPECT_EQ(p.clock_for(ProbeKind::kJavaUdp, false), ClockKind::kJavaDate);
}

TEST(ProbeKinds, ElevenKindsWithNames) {
  const auto kinds = all_probe_kinds();
  EXPECT_EQ(kinds.size(), 11u);
  EXPECT_STREQ(probe_kind_name(ProbeKind::kXhrGet), "XHR GET");
  EXPECT_STREQ(probe_kind_name(ProbeKind::kWebSocket), "WebSocket");
  EXPECT_STREQ(probe_kind_name(ProbeKind::kJavaUdp),
               "Java applet UDP socket");
}

TEST(Names, InitialsAndOsNames) {
  EXPECT_STREQ(browser_initial(BrowserId::kIe), "IE");
  EXPECT_STREQ(browser_initial(BrowserId::kSafari), "S");
  EXPECT_STREQ(os_initial(OsId::kWindows7), "W");
  EXPECT_STREQ(os_name(OsId::kUbuntu), "Ubuntu 12.04");
}

// --------------------------------------------------------------- DistSpec

TEST(DistSpecTest, ConstantSamplesExactly) {
  sim::Rng rng{31};
  const auto d = DistSpec::constant(4.5);
  for (int i = 0; i < 10; ++i) {
    EXPECT_DOUBLE_EQ(d.sample(rng).ms_f(), 4.5);
  }
  EXPECT_DOUBLE_EQ(d.median_ms(), 4.5);
}

TEST(DistSpecTest, UniformWithinBounds) {
  sim::Rng rng{32};
  const auto d = DistSpec::uniform(2.0, 8.0);
  for (int i = 0; i < 1000; ++i) {
    const double v = d.sample(rng).ms_f();
    EXPECT_GE(v, 2.0);
    EXPECT_LT(v, 8.0);
  }
  EXPECT_DOUBLE_EQ(d.median_ms(), 5.0);
}

TEST(DistSpecTest, NormalMayGoNegativeOthersClamp) {
  sim::Rng rng{33};
  const auto norm = DistSpec::normal(-2.0, 0.5);
  bool saw_negative = false;
  for (int i = 0; i < 100; ++i) {
    if (norm.sample(rng).is_negative()) saw_negative = true;
  }
  EXPECT_TRUE(saw_negative);

  const auto uni = DistSpec::uniform(-5.0, -1.0);
  for (int i = 0; i < 100; ++i) {
    EXPECT_GE(uni.sample(rng), sim::Duration::zero());
  }
}

class DistMedianSweep
    : public ::testing::TestWithParam<std::tuple<double, double>> {};

TEST_P(DistMedianSweep, LognormalMedianHolds) {
  const auto [median, sigma] = GetParam();
  sim::Rng rng{77};
  const auto d = DistSpec::lognormal_med(median, sigma);
  std::vector<double> xs;
  for (int i = 0; i < 20001; ++i) xs.push_back(d.sample(rng).ms_f());
  std::nth_element(xs.begin(), xs.begin() + xs.size() / 2, xs.end());
  EXPECT_NEAR(xs[xs.size() / 2], median, median * 0.08);
  EXPECT_DOUBLE_EQ(d.median_ms(), median);
}

INSTANTIATE_TEST_SUITE_P(
    Params, DistMedianSweep,
    ::testing::Combine(::testing::Values(1.0, 20.0, 80.0),
                       ::testing::Values(0.2, 0.45)));

// Calibration sanity: encoded medians reflect the published figure bands.
TEST(Calibration, Figure3Bands) {
  for (const auto& c : paper_cases()) {
    const auto p = make_profile(c.browser, c.os);
    const auto warm = [&](ProbeKind k) {
      const auto m = p.overhead(k);
      return m.pre_send.median_ms() + m.recv_dispatch.median_ms();
    };
    EXPECT_GE(warm(ProbeKind::kXhrGet), 2.0) << c.label();
    EXPECT_LE(warm(ProbeKind::kXhrGet), 30.0) << c.label();
    EXPECT_LE(warm(ProbeKind::kDom), 8.0) << c.label();
    EXPECT_GE(warm(ProbeKind::kFlashGet), 15.0) << c.label();
    EXPECT_LE(warm(ProbeKind::kFlashGet), 110.0) << c.label();
    EXPECT_LE(warm(ProbeKind::kFlashSocket), 4.0) << c.label();
    EXPECT_LE(warm(ProbeKind::kJavaSocket), 0.5) << c.label();
    if (p.supports_websocket) {
      EXPECT_LE(warm(ProbeKind::kWebSocket), 1.5) << c.label();
    }
  }
}

}  // namespace
}  // namespace bnm::browser

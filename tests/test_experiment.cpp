#include <gtest/gtest.h>

#include <cmath>
#include <memory>
#include <string>

#include "core/experiment.h"
#include "stats/descriptive.h"

namespace bnm::core {
namespace {

using browser::BrowserId;
using browser::OsId;

ExperimentConfig quick(methods::ProbeKind kind, BrowserId b, OsId os,
                       int runs = 10) {
  ExperimentConfig cfg;
  cfg.kind = kind;
  cfg.browser = b;
  cfg.os = os;
  cfg.runs = runs;
  return cfg;
}

TEST(Experiment, CollectsRequestedRuns) {
  const auto series = run_experiment(
      quick(methods::ProbeKind::kWebSocket, BrowserId::kChrome, OsId::kUbuntu));
  EXPECT_EQ(series.samples.size(), 10u);
  EXPECT_EQ(series.failures, 0);
  EXPECT_EQ(series.case_label, "C (U)");
  EXPECT_EQ(series.method_name, "WebSocket");
}

TEST(Experiment, NetworkRttTracksNetemDelay) {
  auto cfg = quick(methods::ProbeKind::kXhrGet, BrowserId::kChrome, OsId::kUbuntu);
  const auto series = run_experiment(cfg);
  for (const auto& s : series.samples) {
    EXPECT_GT(s.net_rtt1_ms, 50.0);
    EXPECT_LT(s.net_rtt1_ms, 51.5);
    EXPECT_GT(s.net_rtt2_ms, 50.0);
    EXPECT_LT(s.net_rtt2_ms, 51.5);
    EXPECT_DOUBLE_EQ(s.d1_ms, s.browser_rtt1_ms - s.net_rtt1_ms);
    EXPECT_DOUBLE_EQ(s.d2_ms, s.browser_rtt2_ms - s.net_rtt2_ms);
  }
}

TEST(Experiment, DeterministicForSameSeed) {
  const auto a = run_experiment(
      quick(methods::ProbeKind::kDom, BrowserId::kFirefox, OsId::kWindows7, 5));
  const auto b = run_experiment(
      quick(methods::ProbeKind::kDom, BrowserId::kFirefox, OsId::kWindows7, 5));
  ASSERT_EQ(a.samples.size(), b.samples.size());
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    EXPECT_DOUBLE_EQ(a.samples[i].d1_ms, b.samples[i].d1_ms);
    EXPECT_DOUBLE_EQ(a.samples[i].d2_ms, b.samples[i].d2_ms);
  }
}

TEST(Experiment, DifferentSeedsDiffer) {
  auto cfg = quick(methods::ProbeKind::kDom, BrowserId::kFirefox, OsId::kWindows7, 5);
  const auto a = run_experiment(cfg);
  cfg.seed = 4242;
  const auto b = run_experiment(cfg);
  bool any_diff = false;
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    if (std::fabs(a.samples[i].d1_ms - b.samples[i].d1_ms) > 1e-9) {
      any_diff = true;
    }
  }
  EXPECT_TRUE(any_diff);
}

TEST(Experiment, OperaFlashConnectionAccounting) {
  const auto get = run_experiment(
      quick(methods::ProbeKind::kFlashGet, BrowserId::kOpera, OsId::kWindows7));
  for (const auto& s : get.samples) {
    EXPECT_EQ(s.connections_opened1, 1);
    EXPECT_EQ(s.connections_opened2, 0);
  }
  const auto post = run_experiment(
      quick(methods::ProbeKind::kFlashPost, BrowserId::kOpera, OsId::kWindows7));
  for (const auto& s : post.samples) {
    EXPECT_EQ(s.connections_opened1, 1);
    EXPECT_EQ(s.connections_opened2, 1);
  }
}

TEST(Experiment, ChromeFlashReusesPreparationConnection) {
  const auto series = run_experiment(
      quick(methods::ProbeKind::kFlashGet, BrowserId::kChrome, OsId::kWindows7));
  for (const auto& s : series.samples) {
    EXPECT_EQ(s.connections_opened1, 0);
    EXPECT_EQ(s.connections_opened2, 0);
  }
}

TEST(Experiment, UnsupportedCaseReportsFailures) {
  const auto series = run_experiment(
      quick(methods::ProbeKind::kWebSocket, BrowserId::kIe, OsId::kWindows7, 3));
  EXPECT_TRUE(series.samples.empty());
  EXPECT_EQ(series.failures, 3);
  EXPECT_FALSE(series.first_error.empty());
}

TEST(Experiment, AppletviewerLabelled) {
  auto cfg = quick(methods::ProbeKind::kJavaSocket, BrowserId::kChrome,
                   OsId::kWindows7, 5);
  cfg.java_via_appletviewer = true;
  const auto series = run_experiment(cfg);
  EXPECT_EQ(series.case_label, "appletviewer (W)");
  EXPECT_EQ(series.samples.size(), 5u);
}

TEST(Experiment, SeriesStatisticsAccessors) {
  const auto series = run_experiment(
      quick(methods::ProbeKind::kWebSocket, BrowserId::kChrome, OsId::kUbuntu, 20));
  EXPECT_EQ(series.d1().size(), 20u);
  EXPECT_EQ(series.d2().size(), 20u);
  const auto box = series.d2_box();
  EXPECT_LE(box.q1, box.median);
  const auto ci = series.d2_ci();
  EXPECT_GE(ci.half_width, 0.0);
}

TEST(Experiment, NanotimeShrinksJavaSpread) {
  auto cfg = quick(methods::ProbeKind::kJavaSocket, BrowserId::kFirefox,
                   OsId::kWindows7, 30);
  const auto date_series = run_experiment(cfg);
  cfg.java_use_nanotime = true;
  const auto nano_series = run_experiment(cfg);
  const double date_spread =
      stats::max(date_series.d2()) - stats::min(date_series.d2());
  const double nano_spread =
      stats::max(nano_series.d2()) - stats::min(nano_series.d2());
  // Date.getTime quantization spreads over ~16 ms; nanoTime stays tight.
  EXPECT_LT(nano_spread, 1.0);
  EXPECT_GT(date_spread, nano_spread);
}

TEST(Experiment, HttpOverheadExceedsSocketOverhead) {
  const auto xhr = run_experiment(
      quick(methods::ProbeKind::kXhrGet, BrowserId::kChrome, OsId::kUbuntu, 15));
  const auto ws = run_experiment(
      quick(methods::ProbeKind::kWebSocket, BrowserId::kChrome, OsId::kUbuntu, 15));
  EXPECT_GT(xhr.d2_box().median, ws.d2_box().median);
}

// ------------------------------------------------ core::window_times

constexpr net::Port kProbePort = 80;
const net::Endpoint kClientEp{net::IpAddress{10, 0, 0, 1}, 50000};
const net::Endpoint kProbeEp{net::IpAddress{10, 0, 0, 2}, kProbePort};
const net::Endpoint kOtherEp{net::IpAddress{10, 0, 0, 2}, 8080};

sim::TimePoint at_ms(double ms) {
  return sim::TimePoint::epoch() + sim::Duration::from_millis_f(ms);
}

/// A client tap filled row by row at chosen simulated instants.
class WindowTimesTest : public ::testing::Test {
 protected:
  void build(sim::Duration jitter = sim::Duration::zero()) {
    net::PacketCapture::Config cfg;
    cfg.timestamp_jitter = jitter;
    cap = std::make_unique<net::PacketCapture>(sim, cfg);
  }
  /// Records a TCP packet at `ms` and returns its row index.
  std::size_t row(double ms, bool outbound, net::Endpoint peer,
                  net::TcpFlags flags, const std::string& payload = "") {
    net::Packet p;
    p.protocol = net::Protocol::kTcp;
    p.src = outbound ? kClientEp : peer;
    p.dst = outbound ? peer : kClientEp;
    p.flags = flags;
    p.payload = net::to_bytes(payload);
    sim.scheduler().schedule_at(at_ms(ms), [this, outbound, p] {
      cap->record(outbound ? net::CaptureDirection::kOutbound
                           : net::CaptureDirection::kInbound,
                  p);
    });
    return rows++;
  }
  void run() { sim.scheduler().run(); }

  sim::Simulation sim{7};
  std::unique_ptr<net::PacketCapture> cap;
  std::size_t rows = 0;
};

TEST_F(WindowTimesTest, FirstRequestToLastResponseInsideTheWindow) {
  // Up to 1 ms of stamp jitter, so a row's stamp and its true time differ.
  build(sim::Duration::millis(1));
  const double from = 10.0, to = 40.0;
  const std::size_t early = row(from - 0.001, true, kProbeEp, {.psh = true}, "early");
  row(10.0, true, kProbeEp, {.syn = true});                    // fresh connection
  row(10.5, true, kProbeEp, {.syn = true, .ack = true});       // SYN-ACK: not counted
  row(10.6, false, kProbeEp, {.syn = true, .ack = true});
  row(11.0, true, kProbeEp, {.ack = true});                    // pure ACK
  const std::size_t req = row(12.0, true, kProbeEp, {.ack = true, .psh = true}, "GET");
  row(13.0, true, kProbeEp, {.ack = true, .psh = true}, "more");  // not the first
  row(14.0, true, kOtherEp, {.syn = true});                    // other port
  row(14.5, true, kOtherEp, {.ack = true, .psh = true}, "other");
  row(20.0, false, kProbeEp, {.ack = true, .psh = true}, "part");
  const std::size_t resp = row(30.0, false, kProbeEp, {.ack = true, .psh = true}, "last");
  row(31.0, false, kProbeEp, {.ack = true});                   // pure ACK
  row(32.0, false, kOtherEp, {.ack = true, .psh = true}, "other");
  row(to + 0.001, false, kProbeEp, {.ack = true, .psh = true}, "late");
  run();
  ASSERT_EQ(cap->size(), rows);
  // The early row's stamp falls inside the window; its true time does not.
  ASSERT_GE(cap->timestamp(early), at_ms(from));

  const WindowTimes w = window_times(*cap, at_ms(from), at_ms(to), kProbePort);
  EXPECT_EQ(w.connections_opened, 1);
  ASSERT_TRUE(w.net_rtt_ms.has_value());
  // Stamped by the capture clock, not by true time.
  EXPECT_EQ(*w.net_rtt_ms, (cap->timestamp(resp) - cap->timestamp(req)).ms_f());
  EXPECT_NE(*w.net_rtt_ms, (cap->true_time(resp) - cap->true_time(req)).ms_f());
}

TEST_F(WindowTimesTest, NoRttUnlessTheResponseStampFollowsTheRequest) {
  build();
  row(5.0, false, kProbeEp, {.ack = true, .psh = true}, "stale");
  row(8.0, true, kProbeEp, {.ack = true, .psh = true}, "GET");
  row(10.0, true, kProbeEp, {.ack = true, .psh = true}, "GET");
  row(10.0, false, kProbeEp, {.ack = true, .psh = true}, "same instant");
  row(20.0, true, kProbeEp, {.ack = true, .psh = true}, "GET");
  run();
  // Response before the request.
  EXPECT_FALSE(window_times(*cap, at_ms(5), at_ms(8), kProbePort).net_rtt_ms);
  // Response stamped at the request's instant.
  EXPECT_FALSE(window_times(*cap, at_ms(10), at_ms(10), kProbePort).net_rtt_ms);
  // Request with no response after it.
  EXPECT_FALSE(window_times(*cap, at_ms(15), at_ms(30), kProbePort).net_rtt_ms);
  // Nothing in the window at all.
  const WindowTimes empty = window_times(*cap, at_ms(50), at_ms(60), kProbePort);
  EXPECT_FALSE(empty.net_rtt_ms);
  EXPECT_EQ(empty.connections_opened, 0);
  // Control: the first request at 8 ms and the last response at 10 ms.
  EXPECT_EQ(window_times(*cap, at_ms(8), at_ms(10), kProbePort).net_rtt_ms,
            2.0);
}

}  // namespace
}  // namespace bnm::core

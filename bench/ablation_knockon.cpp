// Knock-on effects and design ablations (Sections 2.2, 3, 4.1):
//
//  A. Throughput under-estimation: round-trip throughput computed from a
//     browser-level duration vs the packet-level truth, across payload
//     sizes (small transfers suffer most - the overhead is amortized away
//     as transfers grow).
//  B. Jitter inflation: overhead variability leaks into jitter estimates.
//  C. Server-delay sweep: the netem delay is "a major factor determining
//     the amount of RTT inflation when a measurement method includes TCP
//     handshaking" - Opera Flash GET d1 tracks the configured delay 1:1.
//  D. Capture-jitter ablation: ground-truth timestamping error does not
//     change the findings (it is ~2 orders below the HTTP overheads).
#include "bench_util.h"
#include "browser/websocket_api.h"
#include "browser/xhr.h"
#include "core/knockon.h"
#include "stats/descriptive.h"

using namespace bnm;
using benchutil::banner;
using benchutil::shape_check;
using T = report::TextTable;

namespace {

void throughput_section() {
  banner("A. Throughput under-estimation (XHR download, Chrome/Ubuntu)");
  core::ThroughputExperiment::Config cfg;
  cfg.payload_sizes = {1024, 10 * 1024, 100 * 1024, 1024 * 1024};
  core::ThroughputExperiment exp{cfg};
  const auto samples = exp.run();

  report::TextTable table({"payload", "browser ms", "capture ms",
                           "browser Mbps", "capture Mbps", "under-est."});
  double small_ratio = 0, big_ratio = 0, xhr_10k_ratio = 0;
  for (const auto& s : samples) {
    table.add_row({std::to_string(s.payload_bytes) + " B",
                   T::fmt(s.browser_ms, 2), T::fmt(s.net_ms, 2),
                   T::fmt(s.browser_tput_mbps, 3), T::fmt(s.net_tput_mbps, 3),
                   T::fmt(s.underestimation(), 2) + "x"});
    if (s.payload_bytes == cfg.payload_sizes.front()) {
      small_ratio = s.underestimation();
    }
    if (s.payload_bytes == cfg.payload_sizes.back()) {
      big_ratio = s.underestimation();
    }
    if (s.payload_bytes == 10 * 1024) xhr_10k_ratio = s.underestimation();
  }
  std::printf("%s\n", table.render().c_str());
  shape_check(small_ratio > big_ratio,
              "under-estimation shrinks as transfers grow (overhead "
              "amortized)");
  shape_check(small_ratio > 1.02,
              "small transfers visibly under-estimated (" +
                  T::fmt(small_ratio, 2) + "x)");

  // The socket family barely under-estimates: same transfer over
  // WebSocket for contrast.
  core::ThroughputExperiment::Config ws_cfg;
  ws_cfg.via = core::ThroughputExperiment::Via::kWebSocket;
  ws_cfg.payload_sizes = {10 * 1024};
  core::ThroughputExperiment ws_exp{ws_cfg};
  const auto ws_samples = ws_exp.run();
  if (!ws_samples.empty()) {
    std::printf("WebSocket, 10 KiB: %.2fx under-estimation (vs %.2fx XHR)\n",
                ws_samples[0].underestimation(), xhr_10k_ratio);
    shape_check(ws_samples[0].underestimation() < xhr_10k_ratio,
                "the socket method under-estimates less than the HTTP one");
  }
}

void jitter_section() {
  banner("B. Jitter inflation by overhead variability");
  report::TextTable table(
      {"method", "case", "browser jitter ms", "capture jitter ms", "x"});
  struct Row {
    methods::ProbeKind kind;
    browser::BrowserId browser;
  };
  const Row rows[] = {
      {methods::ProbeKind::kFlashGet, browser::BrowserId::kSafari},
      {methods::ProbeKind::kXhrGet, browser::BrowserId::kIe},
      {methods::ProbeKind::kWebSocket, browser::BrowserId::kChrome},
  };
  double flash_infl = 0, ws_infl = 0;
  for (const auto& r : rows) {
    const auto series =
        benchutil::run_case(r.browser, browser::OsId::kWindows7, r.kind);
    const auto j = core::jitter_report(series);
    table.add_row({series.method_name, series.case_label,
                   T::fmt(j.browser_jitter_ms, 3), T::fmt(j.net_jitter_ms, 3),
                   T::fmt(j.inflation(), 1)});
    if (r.kind == methods::ProbeKind::kFlashGet) flash_infl = j.inflation();
    if (r.kind == methods::ProbeKind::kWebSocket) ws_infl = j.inflation();
  }
  std::printf("%s\n", table.render().c_str());
  shape_check(flash_infl > ws_infl * 3,
              "unstable overheads (Flash HTTP) inflate jitter far more than "
              "stable ones (WebSocket)");
}

void delay_sweep_section() {
  banner("C. Server-delay sweep: handshake inclusion tracks the delay");
  report::TextTable table({"netem delay", "Opera Flash GET d1 med",
                           "d2 med", "d1 - d2"});
  // d1 - d2 = one handshake (the netem delay) + the Flash first-use cost;
  // sweeping the delay should move d1 - d2 by exactly the delta.
  std::vector<double> delays, gaps;
  const int delay_steps[] = {25, 50, 100};
  std::vector<core::ExperimentConfig> batch;
  for (const int delay_ms : delay_steps) {
    core::ExperimentConfig cfg;
    cfg.browser = browser::BrowserId::kOpera;
    cfg.os = browser::OsId::kWindows7;
    cfg.kind = methods::ProbeKind::kFlashGet;
    cfg.runs = 30;
    cfg.testbed.server_delay = sim::Duration::millis(delay_ms);
    batch.push_back(std::move(cfg));
  }
  const auto results = core::run_matrix(batch, benchutil::options().jobs);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const int delay_ms = delay_steps[i];
    const auto& series = results[i];
    const double d1 = series.d1_box().median;
    const double d2 = series.d2_box().median;
    table.add_row({std::to_string(delay_ms) + " ms", T::fmt(d1, 1),
                   T::fmt(d2, 1), T::fmt(d1 - d2, 1)});
    delays.push_back(delay_ms);
    gaps.push_back(d1 - d2);
  }
  std::printf("%s\n", table.render().c_str());
  bool tracks = delays.size() >= 2;
  for (std::size_t i = 1; i < delays.size(); ++i) {
    const double slope =
        (gaps[i] - gaps[i - 1]) / (delays[i] - delays[i - 1]);
    if (slope < 0.8 || slope > 1.2) tracks = false;
  }
  shape_check(tracks,
              "d1 - d2 grows 1:1 with the configured delay (one handshake "
              "RTT is folded into the first measurement)");
}

void capture_jitter_section() {
  banner("D. Capture-jitter ablation (ground truth error 0 vs 0.3 ms)");
  report::TextTable table({"capture jitter", "XHR GET d2 med (IE/W)"});
  double med0 = 0, med3 = 0;
  for (const double jitter_ms : {0.0, 0.3}) {
    core::ExperimentConfig cfg;
    cfg.browser = browser::BrowserId::kIe;
    cfg.os = browser::OsId::kWindows7;
    cfg.kind = methods::ProbeKind::kXhrGet;
    cfg.runs = 30;
    cfg.testbed.capture_jitter = sim::Duration::from_millis_f(jitter_ms);
    const auto series = core::run_experiment(cfg);
    const double med = series.d2_box().median;
    table.add_row({T::fmt(jitter_ms, 1) + " ms", T::fmt(med, 2)});
    if (jitter_ms == 0.0) med0 = med;
    if (jitter_ms == 0.3) med3 = med;
  }
  std::printf("%s\n", table.render().c_str());
  shape_check(std::abs(med0 - med3) < 2.0,
              "capture timestamping error is negligible next to the "
              "browser-side overhead");
}

void redirect_section() {
  banner("E. Hidden redirects double-charge the RTT");
  // A measurement page that probes a URL behind a 302 pays one extra
  // round trip per hop without the tool noticing - same failure class as
  // the Flash handshake inclusion (Section 4.1), different mechanism.
  core::Testbed::Config tcfg;
  core::Testbed testbed{tcfg};
  http::HttpClient client{testbed.client()};

  auto timed_get = [&](const std::string& target,
                       http::HttpClient::Options opts) {
    const sim::TimePoint t0 = testbed.sim().now();
    sim::TimePoint done;
    http::HttpRequest req;
    req.method = "GET";
    req.target = target;
    client.request(testbed.http_endpoint(), req,
                   [&](http::HttpResponse, http::HttpClient::TransferInfo) {
                     done = testbed.sim().now();
                   },
                   opts);
    testbed.sim().scheduler().run();
    return (done - t0).ms_f();
  };

  http::HttpClient::Options follow;
  follow.max_redirects = 5;
  (void)timed_get("/echo", follow);  // warm the connection pool first
  const double direct_ms = timed_get("/echo", follow);
  const double redirected_ms = timed_get("/redirect?to=/echo", follow);

  report::TextTable table({"probe target", "measured duration (ms)"});
  table.add_row({"/echo (direct)", T::fmt(direct_ms, 1)});
  table.add_row({"/redirect -> /echo", T::fmt(redirected_ms, 1)});
  std::printf("%s\n", table.render().c_str());
  shape_check(redirected_ms > direct_ms + 40.0,
              "one 302 hop adds ~one network RTT to the measurement");
}

void slow_start_section() {
  banner("F. TCP slow start vs throughput probes (why speedtests ramp)");
  // With real congestion control the first seconds of a transfer are
  // window-limited: short throughput probes measure the slow-start ramp,
  // not the pipe - an *additional* bias on top of the browser overhead.
  report::TextTable table({"payload", "fixed window Mbps (capture)",
                           "slow start Mbps (capture)"});
  bool ramp_visible = true;
  for (const std::size_t size : {64UL * 1024, 1024UL * 1024}) {
    double fixed = 0, ss = 0;
    for (const bool cc : {false, true}) {
      core::ThroughputExperiment::Config cfg;
      cfg.payload_sizes = {size};
      cfg.runs_per_size = 3;
      cfg.testbed.tcp.congestion_control = cc;
      core::ThroughputExperiment exp{cfg};
      const auto samples = exp.run();
      if (samples.empty()) continue;
      (cc ? ss : fixed) = samples[0].net_tput_mbps;
    }
    table.add_row({std::to_string(size / 1024) + " KiB", T::fmt(fixed, 2),
                   T::fmt(ss, 2)});
    if (ss >= fixed) ramp_visible = false;
  }
  std::printf("%s\n", table.render().c_str());
  shape_check(ramp_visible,
              "slow start depresses short-transfer throughput below the "
              "fixed-window measurement");
}

void busy_page_section() {
  banner("G. Real pages compete for connections (Section 5's warning)");
  // "The browsers have to establish new connections due to the competition
  // of downloading the other files": saturate the 6-per-host pool with
  // subresource fetches, then measure - the probe's connection setup leaks
  // into the measured RTT.
  auto measure_xhr_ms = [&](int busy_subresources) {
    core::Testbed::Config tcfg;
    core::Testbed testbed{tcfg};
    auto session = testbed.launch_browser(
        browser::make_profile(browser::BrowserId::kChrome,
                              browser::OsId::kUbuntu),
        0);
    double measured = 0;
    // Owned here, not by its own callback: a callback holding the XHR that
    // holds it is a cycle that leaks it and the connections it reaches.
    std::unique_ptr<browser::XmlHttpRequest> xhr;
    session->load_container_page(browser::ProbeKind::kXhrGet, [&] {
      // The page starts large competing downloads that hold pool slots.
      for (int i = 0; i < busy_subresources; ++i) {
        http::HttpRequest sub;
        sub.method = "GET";
        sub.target = "/payload?size=2000000";
        session->http().request(
            testbed.http_endpoint(), sub,
            [](http::HttpResponse, http::HttpClient::TransferInfo) {});
      }
      xhr = std::make_unique<browser::XmlHttpRequest>(*session);
      auto& clock = session->clock(browser::ClockKind::kJsDate);
      auto t0 = std::make_shared<sim::TimePoint>();
      xhr->set_onreadystatechange([&, t0] {
        if (xhr->ready_state() != browser::XmlHttpRequest::ReadyState::kDone) {
          return;
        }
        measured = (clock.read(testbed.sim().now()) - *t0).ms_f();
      });
      xhr->open("GET", "/echo");
      *t0 = clock.read(testbed.sim().now());
      xhr->send();
    });
    testbed.sim().scheduler().run();
    return measured;
  };

  const double quiet_ms = measure_xhr_ms(0);
  const double busy_ms = measure_xhr_ms(8);  // > the 6-connection limit
  report::TextTable table({"page state", "measured RTT (ms)"});
  table.add_row({"quiet page", T::fmt(quiet_ms, 1)});
  table.add_row({"8 competing downloads", T::fmt(busy_ms, 1)});
  std::printf("%s\n", table.render().c_str());
  shape_check(busy_ms > quiet_ms + 30.0,
              "a busy page inflates the probe (queueing + handshake + "
              "contended link), exactly Section 5's caution");
}

void event_loop_load_section() {
  banner("H. Main-thread load sensitivity (Section 3's system-load caveat)");
  // Pile rendering-sized tasks onto the browser event loop while probing:
  // completion events queue behind them, inflating the measured RTT.
  auto measure_ws_ms = [&](bool loaded) {
    core::Testbed::Config tcfg;
    core::Testbed testbed{tcfg};
    auto session = testbed.launch_browser(
        browser::make_profile(browser::BrowserId::kChrome,
                              browser::OsId::kUbuntu),
        0);
    auto rtts = std::make_shared<std::vector<double>>();
    // Owned here, not by its own callbacks (that cycle would leak it).
    std::unique_ptr<browser::BrowserWebSocket> ws;
    session->load_container_page(browser::ProbeKind::kWebSocket, [&] {
      if (loaded) {
        // ~8 ms of main-thread work arriving with aperiodic ~10 ms gaps
        // (a page mid-animation with jittery rendering). Periodic load
        // would phase-lock with the probe train and hide the effect.
        session->event_loop().set_task_cost(sim::Duration::millis(8));
        sim::Rng load_rng{12345};
        double at_ms = 0;
        for (int i = 0; i < 800; ++i) {
          at_ms += load_rng.uniform(6.0, 14.0);
          session->event_loop().post(sim::Duration::from_millis_f(at_ms),
                                     [] {});
        }
      }
      ws = std::make_unique<browser::BrowserWebSocket>(
          *session, testbed.ws_endpoint(), "/ws");
      auto& clock = session->clock(browser::ClockKind::kJsDate);
      auto t0 = std::make_shared<sim::TimePoint>();
      // 10 back-to-back probes sample different phases of the load.
      ws->set_onmessage([&, t0, rtts](const std::string&) {
        rtts->push_back((clock.read(testbed.sim().now()) - *t0).ms_f());
        if (rtts->size() >= 10) {
          ws->close();
          return;
        }
        *t0 = clock.read(testbed.sim().now());
        ws->send("probe");
      });
      ws->set_onopen([&, t0] {
        *t0 = clock.read(testbed.sim().now());
        ws->send("probe");
      });
    });
    testbed.sim().scheduler().run();
    return rtts->empty() ? 0.0 : stats::median(*rtts);
  };

  const double idle_ms = measure_ws_ms(false);
  const double loaded_ms = measure_ws_ms(true);
  report::TextTable table({"main thread", "WebSocket measured RTT (ms)"});
  table.add_row({"idle", T::fmt(idle_ms, 1)});
  table.add_row({"80% busy (animation)", T::fmt(loaded_ms, 1)});
  std::printf("%s\n", table.render().c_str());
  shape_check(loaded_ms > idle_ms + 1.0,
              "even the best method inflates when the page keeps the main "
              "thread busy");
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::init(argc, argv);
  throughput_section();
  jitter_section();
  delay_sweep_section();
  capture_jitter_section();
  redirect_section();
  slow_start_section();
  busy_page_section();
  event_loop_load_section();
  return 0;
}

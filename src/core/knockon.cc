#include "core/knockon.h"

#include <cmath>
#include <optional>
#include <utility>

#include "browser/websocket_api.h"
#include "browser/xhr.h"
#include "stats/descriptive.h"

namespace bnm::core {

namespace {
double mean_abs_diff(const std::vector<double>& xs) {
  if (xs.size() < 2) return 0;
  double acc = 0;
  for (std::size_t i = 1; i < xs.size(); ++i) {
    acc += std::fabs(xs[i] - xs[i - 1]);
  }
  return acc / static_cast<double>(xs.size() - 1);
}

struct RunTimes {
  std::optional<sim::TimePoint> true_send, true_recv;
  sim::TimePoint t_b_s, t_b_r;
};
}  // namespace

JitterReport jitter_report(const OverheadSeries& series) {
  std::vector<double> browser_rtt, net_rtt;
  browser_rtt.reserve(series.samples.size());
  net_rtt.reserve(series.samples.size());
  for (const auto& s : series.samples) {
    browser_rtt.push_back(s.browser_rtt2_ms);
    net_rtt.push_back(s.net_rtt2_ms);
  }
  JitterReport r;
  r.browser_jitter_ms = mean_abs_diff(browser_rtt);
  r.net_jitter_ms = mean_abs_diff(net_rtt);
  return r;
}

ThroughputExperiment::ThroughputExperiment(Config config)
    : config_{std::move(config)} {
  config_.testbed.client_os = config_.os;
  config_.testbed.seed = config_.seed;
  testbed_ = std::make_unique<Testbed>(config_.testbed);
}

std::vector<ThroughputSample> ThroughputExperiment::run() {
  std::vector<ThroughputSample> out;
  const browser::BrowserProfile profile =
      browser::make_profile(config_.browser, config_.os);
  sim::Scheduler& sched = testbed_->sim().scheduler();
  const net::Port probe_port = config_.via == Via::kXhr
                                   ? config_.testbed.http_port
                                   : config_.testbed.ws_port;
  std::uint64_t session = 0;

  for (const std::size_t size : config_.payload_sizes) {
    std::vector<double> browser_ms, net_ms;

    for (int run = 0; run < config_.runs_per_size; ++run) {
      auto b = testbed_->launch_browser(profile, session++);
      RunTimes times;

      browser::XmlHttpRequest xhr{*b};
      std::unique_ptr<browser::BrowserWebSocket> ws;

      if (config_.via == Via::kXhr) {
        b->load_container_page(browser::ProbeKind::kXhrGet, [&] {
          browser::TimingApi& clock = b->clock(browser::ClockKind::kJsDate);
          xhr.set_onreadystatechange([&] {
            if (xhr.ready_state() !=
                browser::XmlHttpRequest::ReadyState::kDone) {
              return;
            }
            times.true_recv = testbed_->sim().now();
            times.t_b_r = clock.read(*times.true_recv);
          });
          xhr.open("GET", "/payload?size=" + std::to_string(size));
          times.true_send = testbed_->sim().now();
          times.t_b_s = clock.read(*times.true_send);
          xhr.send();
        });
      } else {
        b->load_container_page(browser::ProbeKind::kWebSocket, [&] {
          browser::TimingApi& clock = b->clock(browser::ClockKind::kJsDate);
          ws = std::make_unique<browser::BrowserWebSocket>(
              *b, testbed_->ws_endpoint(), "/ws");
          ws->set_onmessage([&](const std::string& data) {
            if (data.size() < size) return;  // stray echo
            times.true_recv = testbed_->sim().now();
            times.t_b_r = clock.read(*times.true_recv);
          });
          ws->set_onopen([&, sizes = size] {
            times.true_send = testbed_->sim().now();
            times.t_b_s = clock.read(*times.true_send);
            ws->send("PULL:" + std::to_string(sizes));
          });
        });
      }
      sched.run();

      if (times.true_send && times.true_recv) {
        // Packet-level duration: Eq. (1)'s window rule over the capture.
        const WindowTimes w =
            window_times(testbed_->client().capture(), *times.true_send,
                         *times.true_recv, probe_port);
        if (w.net_rtt_ms) {
          browser_ms.push_back((times.t_b_r - times.t_b_s).ms_f());
          net_ms.push_back(*w.net_rtt_ms);
        }
      }

      ws.reset();
      b.reset();
      testbed_->client().capture().clear();
      sched.run_until(testbed_->sim().now() + sim::Duration::seconds(1));
    }

    if (browser_ms.empty()) continue;
    ThroughputSample s;
    s.payload_bytes = size;
    s.browser_ms = stats::median(browser_ms);
    s.net_ms = stats::median(net_ms);
    const double bits = static_cast<double>(size) * 8.0;
    s.browser_tput_mbps = bits / (s.browser_ms / 1e3) / 1e6;
    s.net_tput_mbps = bits / (s.net_ms / 1e3) / 1e6;
    out.push_back(s);
  }
  return out;
}

}  // namespace bnm::core

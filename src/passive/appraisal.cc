#include "passive/appraisal.h"

#include <algorithm>
#include <cmath>
#include <memory>
#include <utility>

#include "http/client.h"
#include "stats/descriptive.h"
#include "ws/endpoint.h"

namespace bnm::passive {

namespace {

/// One ground-truth HTTP transaction on the jitter-free clock.
struct TrueExchange {
  sim::TimePoint request_at;  ///< outbound data toward the HTTP port
  double rtt_ms = 0;
};

/// Pair outbound data packets toward `server_port` with the next inbound
/// data packet from it, on the capture's true_time column — the same filter
/// discipline as core::OfflineAnalyzer, but over SoA columns. At a server
/// tap the directions flip (the request arrives inbound), so the caller
/// passes the direction the request travels in.
std::vector<TrueExchange> true_exchanges(const net::PacketCapture& cap,
                                         net::Port server_port,
                                         net::CaptureDirection request_dir) {
  std::vector<TrueExchange> out;
  bool pending = false;
  sim::TimePoint request_at;
  for (std::size_t i = 0; i < cap.size(); ++i) {
    if (!cap.carries_data(i)) continue;
    const net::Packet& pkt = cap.packet(i);
    if (cap.direction(i) == request_dir && pkt.dst.port == server_port) {
      if (!pending) {
        pending = true;
        request_at = cap.true_time(i);
      }
    } else if (cap.direction(i) != request_dir &&
               pkt.src.port == server_port && pending) {
      out.push_back(TrueExchange{
          request_at, (cap.true_time(i) - request_at).ns() / 1e6});
      pending = false;
    }
  }
  return out;
}

}  // namespace

const char* to_string(CapturePoint p) {
  return p == CapturePoint::kClient ? "client" : "server";
}

PassiveAppraisalResult::PassiveAppraisalResult()
    : abs_pair_err_ms{stats::QuantileSketch::Grid{}} {}

stats::BoxStats PassiveAppraisalResult::d1_box() const {
  return stats::box_stats(pair_err_d1_ms);
}

stats::BoxStats PassiveAppraisalResult::d2_box() const {
  return stats::box_stats(pair_err_d2_ms);
}

double PassiveAppraisalResult::median_abs_pair_err_ms() const {
  std::vector<double> abs;
  abs.reserve(pair_err_d1_ms.size() + pair_err_d2_ms.size());
  for (double e : pair_err_d1_ms) abs.push_back(std::fabs(e));
  for (double e : pair_err_d2_ms) abs.push_back(std::fabs(e));
  return stats::median(abs);
}

PassiveAppraisalResult run_passive_appraisal(const PassiveScenario& scenario) {
  core::Testbed::Config tc = scenario.testbed;
  tc.tcp.timestamps = true;  // nothing to observe without the option
  tc.capture_at_server = scenario.capture_point == CapturePoint::kServer;
  core::Testbed bed{tc};
  sim::Simulation& sim = bed.sim();

  const std::string body(scenario.response_bytes, 'x');
  bed.web_server().route("GET", "/passive", [body](const http::HttpRequest&) {
    return http::HttpResponse::make(200, body);
  });

  PassiveAppraisalResult result;
  result.label = scenario.label;
  result.capture_point = scenario.capture_point;

  if (sim.trace().enabled()) {
    sim.trace().emit(sim.now(), "passive/" + scenario.label,
                     "traffic start: " + std::to_string(scenario.http_exchanges) +
                         " GETs, " + std::to_string(scenario.ws_messages) +
                         " WS messages, tap=" +
                         to_string(scenario.capture_point));
  }

  // --- background HTTP traffic: keep-alive GET volley ---
  http::HttpClient client{bed.client()};
  bool http_done = scenario.http_exchanges <= 0;
  // The chain re-arms itself through a raw self-pointer: the whole volley
  // runs to completion inside the drive loop below, while `fire` is alive —
  // owning captures would cycle and leak.
  auto fire = std::make_unique<std::function<void(int)>>();
  *fire = [&, self = fire.get()](int remaining) {
    if (remaining <= 0) {
      http_done = true;
      client.close_all();
      return;
    }
    http::HttpRequest req;
    req.target = "/passive";
    client.request(bed.http_endpoint(), req,
                   [&, self, remaining](http::HttpResponse rsp,
                                        http::HttpClient::TransferInfo) {
                     if (rsp.status == 200) ++result.http_responses;
                     sim.scheduler().post_after(
                         scenario.think_gap,
                         [self, remaining] { (*self)(remaining - 1); });
                   });
  };

  // --- background WebSocket echo volley ---
  ws::WebSocketClient ws_client{bed.client()};
  std::shared_ptr<ws::WebSocketConnection> ws_conn;
  bool ws_done = scenario.ws_messages <= 0;
  if (!ws_done) {
    ws_client.connect(
        bed.ws_endpoint(), "/echo",
        [&](std::shared_ptr<ws::WebSocketConnection> conn) {
          ws_conn = conn;
          ws::WebSocketConnection::Callbacks cbs;
          cbs.on_message = [&](const ws::MessageAssembler::Message&) {
            ++result.ws_echoes;
            if (static_cast<int>(result.ws_echoes) >= scenario.ws_messages) {
              ws_done = true;
              return;
            }
            sim.scheduler().post_after(
                scenario.think_gap, [&] {
                  if (ws_conn) ws_conn->send_text("passive-ping");
                });
          };
          conn->set_callbacks(std::move(cbs));
          conn->send_text("passive-ping");
        });
  }
  (*fire)(scenario.http_exchanges);

  // Drive to completion (faulted scenarios may never finish every exchange:
  // the horizon caps the run instead).
  const sim::Duration per_exchange =
      scenario.think_gap + scenario.testbed.server_delay * 4 +
      sim::Duration::millis(200);
  const sim::TimePoint horizon =
      sim.now() + sim::Duration::seconds(2) +
      per_exchange * (scenario.http_exchanges + scenario.ws_messages + 2);
  while (sim.now().ns_since_epoch() < horizon.ns_since_epoch() &&
         !(http_done && ws_done)) {
    sim.scheduler().run_until(sim.now() + sim::Duration::millis(100));
  }
  // Drain teardown (FINs, delayed ACKs) so the capture ends cleanly.
  sim.scheduler().run_until(sim.now() + sim::Duration::seconds(1));

  // --- the tap ---
  const net::PacketCapture& cap = scenario.capture_point == CapturePoint::kClient
                                      ? bed.client().capture()
                                      : bed.server().capture();
  PassiveRttEstimator estimator;
  estimator.consume(cap);
  result.counters = estimator.counters();
  result.report_json = estimator.report_json(scenario.label);

  // --- ground truth 1: the same packet pair on the true clock ---
  for (const PassiveSample& s : estimator.samples()) {
    const double truth_ms =
        (cap.true_time(s.echo_index) - cap.true_time(s.anchor_index)).ns() /
        1e6;
    const double err_ms = s.rtt.ns() / 1e6 - truth_ms;
    (s.first_on_flow ? result.pair_err_d1_ms : result.pair_err_d2_ms)
        .push_back(err_ms);
    result.abs_pair_err_ms.insert(std::fabs(err_ms));
  }

  // --- ground truth 2: the transaction nearest each anchor ---
  const net::CaptureDirection request_dir =
      scenario.capture_point == CapturePoint::kClient
          ? net::CaptureDirection::kOutbound
          : net::CaptureDirection::kInbound;
  const std::vector<TrueExchange> exchanges =
      true_exchanges(cap, tc.http_port, request_dir);
  for (const PassiveSample& s : estimator.samples()) {
    if (s.from.ip != bed.client().ip() || s.to.port != tc.http_port) continue;
    const sim::TimePoint anchor_true = cap.true_time(s.anchor_index);
    double best_gap = 0;
    const TrueExchange* best = nullptr;
    for (const TrueExchange& e : exchanges) {
      const double gap =
          std::fabs((e.request_at - anchor_true).ns() / 1e6);
      if (!best || gap < best_gap) {
        best = &e;
        best_gap = gap;
      }
    }
    if (best) result.exchange_err_ms.push_back(s.rtt.ns() / 1e6 - best->rtt_ms);
  }

  if (sim.trace().enabled()) {
    sim.trace().emit(sim.now(), "passive/" + scenario.label,
                     "appraised: " + std::to_string(result.counters.samples) +
                         " samples, " +
                         std::to_string(result.http_responses) + " responses");
  }
  return result;
}

std::string render_passive_boxplots(
    const std::vector<PassiveAppraisalResult>& results) {
  std::vector<report::BoxRow> rows;
  for (const PassiveAppraisalResult& r : results) {
    const std::string base =
        r.label + " (" + to_string(r.capture_point) + ") ";
    if (!r.pair_err_d1_ms.empty()) {
      rows.push_back(report::BoxRow{base + "d1", r.d1_box()});
    }
    if (!r.pair_err_d2_ms.empty()) {
      rows.push_back(report::BoxRow{base + "d2", r.d2_box()});
    }
  }
  report::BoxPlotRenderer renderer;
  return renderer.render(rows);
}

}  // namespace bnm::passive

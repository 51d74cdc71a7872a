#include "core/loss_experiment.h"

#include <cstdio>
#include <set>
#include <utility>

#include "browser/java_applet.h"

namespace bnm::core {

LossReorderingExperiment::LossReorderingExperiment(Config config)
    : config_{std::move(config)} {
  config_.testbed.client_os = config_.os;
  config_.testbed.seed = config_.seed;
  testbed_ = std::make_unique<Testbed>(config_.testbed);
}

namespace {
/// Probe payload: fixed prefix + zero-padded sequence number.
std::string probe_payload(int seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "LOSSPROBE-%06d", seq);
  return buf;
}

int probe_seq(const std::string& payload) {
  if (payload.rfind("LOSSPROBE-", 0) != 0) return -1;
  return std::atoi(payload.c_str() + 10);
}
}  // namespace

LossReorderingResult LossReorderingExperiment::run() {
  LossReorderingResult result;
  result.probes_sent = config_.probes;

  auto browser = testbed_->launch_browser(
      browser::make_profile(config_.browser, config_.os), 0);
  browser::JavaAppletRuntime java{*browser, {}};
  browser::JavaAppletRuntime::DatagramSocket socket{java};

  // Browser-level accounting: the measurement code sees echoes through the
  // applet's receive path (dispatch overhead and all).
  int highest_seen = -1;
  bool deadline_passed = false;
  std::set<int> seen;
  socket.set_on_receive([&](net::Endpoint, const std::string& payload) {
    const int seq = probe_seq(payload);
    if (seq < 0 || seen.count(seq)) return;
    seen.insert(seq);
    if (deadline_passed) {
      ++result.late_arrivals;
      return;
    }
    ++result.browser_received;
    if (seq < highest_seen) ++result.browser_reordered;
    highest_seen = std::max(highest_seen, seq);
  });

  // Paced probe train.
  sim::Scheduler& sched = testbed_->sim().scheduler();
  for (int i = 0; i < config_.probes; ++i) {
    sched.post_after(config_.probe_interval * i, [&socket, this, i] {
      socket.send_to(testbed_->udp_echo_endpoint(), probe_payload(i));
    });
  }
  const sim::Duration total =
      config_.probe_interval * config_.probes + config_.drain_timeout;
  sched.run_until(testbed_->sim().now() + total);

  // Grace window: keep listening past the tool's deadline so stragglers the
  // wire did deliver are counted as late arrivals rather than vanishing.
  deadline_passed = true;
  sched.run_until(testbed_->sim().now() + config_.drain_timeout);

  // Ground truth from the client capture: inbound echoes on the UDP port.
  int net_highest = -1;
  std::set<int> net_seen;
  const net::PacketCapture& cap = testbed_->client().capture();
  for (std::size_t i = 0; i < cap.size(); ++i) {
    if (cap.direction(i) != net::CaptureDirection::kInbound) continue;
    if (cap.packet(i).src.port != config_.testbed.udp_echo_port) continue;
    const int seq = probe_seq(net::to_string(cap.packet(i).payload));
    if (seq < 0 || net_seen.count(seq)) continue;
    net_seen.insert(seq);
    ++result.net_received;
    if (seq < net_highest) ++result.net_reordered;
    net_highest = std::max(net_highest, seq);
  }

  socket.close();
  sched.run_until(testbed_->sim().now() + sim::Duration::millis(10));
  return result;
}

}  // namespace bnm::core

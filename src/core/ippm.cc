#include "core/ippm.h"

#include <cstdio>
#include <map>
#include <utility>

#include "stats/descriptive.h"

namespace bnm::core {

PoissonRttStream::PoissonRttStream(Config config) : config_{std::move(config)} {
  config_.testbed.seed = config_.seed;
  testbed_ = std::make_unique<Testbed>(config_.testbed);
}

namespace {
std::string probe_payload(int seq) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "IPPMPROBE-%06d", seq);
  return buf;
}

int probe_seq(const std::string& payload) {
  if (payload.rfind("IPPMPROBE-", 0) != 0) return -1;
  return std::atoi(payload.c_str() + 10);
}
}  // namespace

std::vector<IppmSample> PoissonRttStream::run() {
  sim::Scheduler& sched = testbed_->sim().scheduler();
  sim::Rng rng = testbed_->sim().rng_for("ippm");

  struct Pending {
    sim::TimePoint sent;
    std::optional<sim::TimePoint> received;
  };
  std::map<int, Pending> pending;

  auto socket = testbed_->client().udp_open(
      [&](net::Endpoint, const net::Payload& payload) {
        const int seq = probe_seq(net::to_string(payload));
        const auto it = pending.find(seq);
        if (it != pending.end() && !it->second.received) {
          it->second.received = testbed_->sim().now();
        }
      });

  // Poisson schedule: exponential gaps with mean 1/lambda.
  sim::TimePoint at = testbed_->sim().now();
  for (int i = 0; i < config_.probes; ++i) {
    at += rng.exponential_ms(1000.0 / config_.rate_per_second);
    sched.post_at(at, [this, &socket, &pending, i] {
      pending[i].sent = testbed_->sim().now();
      socket->send_to(testbed_->udp_echo_endpoint(),
                      net::to_bytes(probe_payload(i)));
    });
  }
  sched.run_until(at + config_.drain_timeout);

  // Match capture records per sequence number for the ground truth.
  std::map<int, sim::TimePoint> net_sent, net_recv;
  const net::PacketCapture& cap = testbed_->client().capture();
  for (std::size_t i = 0; i < cap.size(); ++i) {
    const net::Packet& pkt = cap.packet(i);
    if (pkt.protocol != net::Protocol::kUdp) continue;
    const int seq = probe_seq(net::to_string(pkt.payload));
    if (seq < 0) continue;
    if (cap.direction(i) == net::CaptureDirection::kOutbound &&
        !net_sent.count(seq)) {
      net_sent[seq] = cap.timestamp(i);
    }
    if (cap.direction(i) == net::CaptureDirection::kInbound &&
        !net_recv.count(seq)) {
      net_recv[seq] = cap.timestamp(i);
    }
  }

  std::vector<IppmSample> samples;
  for (const auto& [seq, p] : pending) {
    if (!p.received || !net_sent.count(seq) || !net_recv.count(seq)) continue;
    IppmSample s;
    s.seq = seq;
    s.rtt_ms = (*p.received - p.sent).ms_f();
    s.net_rtt_ms = (net_recv[seq] - net_sent[seq]).ms_f();
    samples.push_back(s);
  }
  return samples;
}

double PoissonRttStream::min_rtt_ms(const std::vector<IppmSample>& samples) {
  std::vector<double> rtts;
  rtts.reserve(samples.size());
  for (const auto& s : samples) rtts.push_back(s.rtt_ms);
  return rtts.empty() ? 0.0 : stats::min(rtts);
}

double PoissonRttStream::median_rtt_ms(const std::vector<IppmSample>& samples) {
  std::vector<double> rtts;
  rtts.reserve(samples.size());
  for (const auto& s : samples) rtts.push_back(s.rtt_ms);
  return rtts.empty() ? 0.0 : stats::median(rtts);
}

}  // namespace bnm::core

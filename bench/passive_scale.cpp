// Passive-matcher throughput: how many captured packets per second the
// TSval<->TSecr matcher sustains, independent of the simulator.
//
// Four sections, emitted to BENCH_passive_scale.json with its gates[];
// the bench exits non-zero when a gate fails:
//
//   1. Headline throughput: a pre-synthesized capture stream (default 64
//      flows x 8k packets, request/ACK pairs with RFC 7323 timestamps)
//      pushed through PassiveRttEstimator::observe — packets/sec has a
//      Release floor.
//   2. Report: report_json timed on the headline estimator (report_ms,
//      report_packets_per_sec), and the same stream consumed by a second,
//      independent estimator must serialize a byte-identical report
//      ("identical" — the determinism claim the offline-pcap gate builds
//      on).
//   3. Yield: fraction of data packets that produced an RTT sample (every
//      echoed anchor, minus coarse-clock duplicates), sanity that the
//      throughput number measures real matching work, not early-outs.
//   4. Offline replay: the headline packets recorded by a tap in time order
//      (flows interleaved, as a real capture holds them), written with
//      PcapWriter::write, then PcapReader::read, consume and report_json
//      each timed, in packets/s. The offline report must equal the report
//      of a live estimator consuming the tap ("offline.identical").
//
//   $ passive_scale [--flows=N] [--packets=N]
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <numeric>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "net/capture.h"
#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
#include "passive/rtt_estimator.h"
#include "sim/simulation.h"

using namespace bnm;

namespace {

using Clock = std::chrono::steady_clock;

struct Observation {
  net::Packet packet;
  sim::TimePoint at;
};

// One flow's endpoints spread across /16s so the half-flow map actually
// fans out like a real trunk capture.
net::Endpoint client_ep(int flow) {
  return {net::IpAddress{10, 1, static_cast<std::uint8_t>(flow >> 8),
                         static_cast<std::uint8_t>(flow & 0xff)},
          static_cast<net::Port>(40000 + (flow % 1024))};
}

// Request/ACK ping-pong with a 1 ms TSval clock: data packet out (fresh
// TSval every other round, duplicated in between to exercise the coarse
// clock path), pure ACK back echoing it ~2 ms later.
std::vector<Observation> synthesize(int flows, int packets_per_flow) {
  std::vector<Observation> stream;
  stream.reserve(static_cast<std::size_t>(flows) * packets_per_flow);
  const net::Endpoint server{net::IpAddress{10, 0, 0, 2}, 80};
  for (int f = 0; f < flows; ++f) {
    const net::Endpoint cl = client_ep(f);
    std::uint32_t seq = 1;
    std::int64_t ns = static_cast<std::int64_t>(f) * 1000;  // staggered start
    for (int p = 0; p + 1 < packets_per_flow; p += 2) {
      const std::uint32_t tick = static_cast<std::uint32_t>(ns / 1'000'000);
      net::Packet data;
      data.protocol = net::Protocol::kTcp;
      data.src = cl;
      data.dst = server;
      data.seq = seq;
      data.ack = 1;
      data.flags.ack = true;
      data.flags.psh = true;
      data.ts.present = true;
      data.ts.tsval = 1 + tick;
      data.ts.tsecr = tick;
      stream.push_back({data, sim::TimePoint::from_ns(ns)});
      seq += 512;

      net::Packet ack;
      ack.protocol = net::Protocol::kTcp;
      ack.src = server;
      ack.dst = cl;
      ack.seq = 1;
      ack.ack = seq;
      ack.flags.ack = true;
      ack.ts.present = true;
      ack.ts.tsval = 1 + tick;
      ack.ts.tsecr = data.ts.tsval;
      stream.push_back({ack, sim::TimePoint::from_ns(ns + 2'000'000)});
      ns += 500'000;  // 0.5 ms between requests: every other TSval repeats
    }
  }
  return stream;
}

double ms_since(Clock::time_point t0) {
  return std::chrono::duration<double, std::milli>(Clock::now() - t0).count();
}

double per_sec(std::uint64_t n, double ms) {
  return ms > 0 ? static_cast<double>(n) / (ms / 1e3) : 0;
}

struct Headline {
  std::uint64_t packets = 0;
  int flows = 0;
  double wall_ms = 0;
  std::uint64_t samples = 0;
  std::uint64_t duplicate_tsvals = 0;
  double packets_per_sec() const { return per_sec(packets, wall_ms); }
};

Headline bench_headline(const std::vector<Observation>& stream, int flows,
                        passive::PassiveRttEstimator& est) {
  Headline h;
  h.flows = flows;
  h.packets = stream.size();
  std::printf("headline: %" PRIu64 " packets across %d flows ... ", h.packets,
              flows);
  std::fflush(stdout);
  const auto t0 = Clock::now();
  for (const Observation& ob : stream) {
    est.observe(ob.packet, ob.at);
  }
  h.wall_ms = ms_since(t0);
  h.samples = est.counters().samples;
  h.duplicate_tsvals = est.counters().duplicate_tsvals;
  std::printf("%.1f ms   (%.0f packets/s, %" PRIu64 " samples)\n", h.wall_ms,
              h.packets_per_sec(), h.samples);
  return h;
}

struct Offline {
  std::uint64_t packets = 0;
  std::uint64_t pcap_bytes = 0;
  double read_ms = 0;
  double consume_ms = 0;
  double report_ms = 0;
  bool identical = false;
};

/// The stream as a tap records it (time order, stable), in classic pcap
/// bytes; `live_report` gets the report of an estimator consuming the tap.
std::string tap_pcap(const std::vector<Observation>& stream,
                     std::string& live_report) {
  std::vector<std::size_t> order(stream.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&stream](std::size_t a, std::size_t b) {
                     return stream[a].at < stream[b].at;
                   });
  sim::Simulation sim{1};
  net::PacketCapture tap{sim};
  tap.reserve(stream.size());
  for (const std::size_t i : order) {
    sim.scheduler().run_until(stream[i].at);
    tap.record(net::CaptureDirection::kOutbound, stream[i].packet);
  }
  passive::PassiveRttEstimator live;
  live.consume(tap);
  live_report = live.report_json("passive_scale");
  std::ostringstream out;
  net::PcapWriter::write(tap, out);
  return std::move(out).str();
}

Offline bench_offline(const std::vector<Observation>& stream) {
  Offline o;
  std::string live_report;
  std::string pcap = tap_pcap(stream, live_report);
  o.pcap_bytes = pcap.size();
  std::printf("offline: replaying a %" PRIu64 "-byte pcap ... ", o.pcap_bytes);
  std::fflush(stdout);

  std::istringstream in{std::move(pcap)};  // takes the bytes, no copy
  auto t0 = Clock::now();
  const net::PcapReader::Result parsed = net::PcapReader::read(in);
  o.read_ms = ms_since(t0);
  t0 = Clock::now();
  passive::PassiveRttEstimator est;
  est.consume(parsed.records);
  o.consume_ms = ms_since(t0);
  t0 = Clock::now();
  const std::string report = est.report_json("passive_scale");
  o.report_ms = ms_since(t0);

  o.packets = parsed.records.size();
  o.identical = parsed.ok() && o.packets == stream.size() &&
                report == live_report;
  std::printf("read %.1f ms, consume %.1f ms, report %.1f ms (%s)\n",
              o.read_ms, o.consume_ms, o.report_ms,
              o.identical ? "identical to the live tap" : "DIFFERS");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  int flows = 64;
  int packets_per_flow = 8192;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* s = value("--flows=")) {
      flows = std::atoi(s);
    } else if (const char* s = value("--packets=")) {
      packets_per_flow = std::atoi(s);
    } else {
      std::fprintf(stderr, "usage: %s [--flows=N] [--packets=N]\n", argv[0]);
      return 2;
    }
  }

  benchutil::banner("passive_scale: TSval matcher throughput");

  const std::vector<Observation> stream = synthesize(flows, packets_per_flow);

  passive::PassiveRttEstimator est;
  const Headline h = bench_headline(stream, flows, est);

  std::printf("report: rendering the headline estimator ... ");
  std::fflush(stdout);
  const auto t0 = Clock::now();
  const std::string r1 = est.report_json("passive_scale");
  const double report_ms = ms_since(t0);
  std::printf("%.1f ms   (%.0f packets/s)\n", report_ms,
              per_sec(h.packets, report_ms));

  // Same stream, fresh estimator: reports must agree byte for byte.
  std::printf("report identity: re-consuming the stream ... ");
  std::fflush(stdout);
  passive::PassiveRttEstimator est2;
  for (const Observation& ob : stream) {
    est2.observe(ob.packet, ob.at);
  }
  const std::string r2 = est2.report_json("passive_scale");
  const bool identical = r1 == r2;
  std::printf("%s (%zu-byte reports)\n", identical ? "identical" : "DIFFER",
              r1.size());

  const double data_packets = static_cast<double>(h.packets) / 2.0;
  const double yield =
      data_packets > 0 ? static_cast<double>(h.samples) / data_packets : 0.0;
  benchutil::shape_check(yield > 0.3, "sample yield over 30% of data packets");
  benchutil::shape_check(h.duplicate_tsvals > 0,
                         "coarse-clock duplicate path exercised");

  const Offline off = bench_offline(stream);
  const double replay_ms = off.read_ms + off.consume_ms + off.report_ms;

  // The throughput floor sits far below the millions of packets/s a
  // hash-map matcher manages in Release, but far above anything a
  // per-packet-allocation regression or an O(flows) scan would leave.
  using benchutil::integer, benchutil::num;
  return benchutil::write_result(
      "BENCH_passive_scale.json",
      benchutil::obj({
          {"packets", integer(h.packets)},
          {"flows", integer(h.flows)},
          {"wall_ms", num(h.wall_ms)},
          {"packets_per_sec", num(h.packets_per_sec())},
          {"samples", integer(h.samples)},
          {"duplicate_tsvals", integer(h.duplicate_tsvals)},
          {"sample_yield", num(yield)},
          {"report_ms", num(report_ms)},
          {"report_packets_per_sec", num(per_sec(h.packets, report_ms))},
          {"report_bytes", integer(r1.size())},
          {"identical_reports", benchutil::flag(identical)},
          {"offline",
           benchutil::obj({
               {"packets", integer(off.packets)},
               {"pcap_bytes", integer(off.pcap_bytes)},
               {"read_ms", num(off.read_ms)},
               {"read_packets_per_sec", num(per_sec(off.packets, off.read_ms))},
               {"consume_ms", num(off.consume_ms)},
               {"consume_packets_per_sec",
                num(per_sec(off.packets, off.consume_ms))},
               {"report_ms", num(off.report_ms)},
               {"report_packets_per_sec",
                num(per_sec(off.packets, off.report_ms))},
               {"packets_per_sec", num(per_sec(off.packets, replay_ms))},
               {"identical", benchutil::flag(off.identical)},
           })},
      }),
      {
          benchutil::is_true("identical_reports"),
          benchutil::is_true("offline.identical"),
          benchutil::at_least("packets_per_sec", 200000),
      });
}

// Passive-matcher throughput: how many captured packets per second the
// TSval<->TSecr matcher sustains, independent of the simulator.
//
// Five sections, emitted to BENCH_passive_scale.json with its gates[];
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
//   5. Multi-window replay: a second, fixed stream whose data segments
//      carry 200 payload bytes, spanning three anchor windows, with some
//      segments retransmitted, replayed offline as in 4. Its anchors age
//      out (the eviction sweep runs) and the retransmissions run the
//      Karn's-rule sequence tracking, the two paths the headline stream
//      never reaches. Gate "multiwindow.identical".
//
//   $ passive_scale [--flows=N] [--packets=N]   (reshape the headline only)
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

// The multi-window stream: kLongFlows flows of kLongPayload-byte data
// segments, one every 4 ms for 30 s (three default 10 s anchor windows),
// each ACKed 2 ms later. Every 50th segment is retransmitted 1 ms after it
// was sent, and its ACK echoes the retransmission's TSval.
constexpr int kLongFlows = 16;
constexpr std::size_t kLongPayload = 200;
constexpr std::int64_t kLongSpanNs = 30'000'000'000;

std::vector<Observation> synthesize_multiwindow() {
  constexpr std::int64_t kGapNs = 4'000'000;
  constexpr int kRetransmitEvery = 50;
  const net::Payload payload{std::string(kLongPayload, 'p')};
  const net::Endpoint server{net::IpAddress{10, 0, 0, 2}, 80};
  const auto tsval_at = [](std::int64_t ns) {
    return static_cast<std::uint32_t>(1 + ns / 1'000'000);
  };
  std::vector<Observation> stream;
  for (int f = 0; f < kLongFlows; ++f) {
    const net::Endpoint cl = client_ep(f);
    std::uint32_t seq = 1;
    for (std::int64_t ns = f * 1000, r = 0; ns < kLongSpanNs;
         ns += kGapNs, ++r) {
      net::Packet data;
      data.protocol = net::Protocol::kTcp;
      data.src = cl;
      data.dst = server;
      data.seq = seq;
      data.ack = 1;
      data.flags.ack = true;
      data.flags.psh = true;
      data.ts = {true, tsval_at(ns), tsval_at(ns) - 1};
      data.payload = payload;
      stream.push_back({data, sim::TimePoint::from_ns(ns)});
      std::uint32_t echo = data.ts.tsval;
      if (r % kRetransmitEvery == kRetransmitEvery - 1) {
        net::Packet again = data;
        again.ts.tsval = echo = tsval_at(ns + 1'000'000);
        stream.push_back({again, sim::TimePoint::from_ns(ns + 1'000'000)});
      }
      seq += static_cast<std::uint32_t>(kLongPayload);

      net::Packet ack;
      ack.protocol = net::Protocol::kTcp;
      ack.src = server;
      ack.dst = cl;
      ack.seq = 1;
      ack.ack = seq;
      ack.flags.ack = true;
      ack.ts = {true, tsval_at(ns + 2'000'000), echo};
      stream.push_back({ack, sim::TimePoint::from_ns(ns + 2'000'000)});
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
  passive::PassiveCounters counters;  ///< of the offline estimator
  bool identical = false;

  /// The fields of one replay section, in document order.
  benchutil::Json to_json() const {
    using benchutil::integer, benchutil::num;
    return benchutil::obj({
        {"packets", integer(packets)},
        {"pcap_bytes", integer(pcap_bytes)},
        {"read_ms", num(read_ms)},
        {"read_packets_per_sec", num(per_sec(packets, read_ms))},
        {"consume_ms", num(consume_ms)},
        {"consume_packets_per_sec", num(per_sec(packets, consume_ms))},
        {"report_ms", num(report_ms)},
        {"report_packets_per_sec", num(per_sec(packets, report_ms))},
        {"packets_per_sec",
         num(per_sec(packets, read_ms + consume_ms + report_ms))},
        {"identical", benchutil::flag(identical)},
    });
  }
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

Offline bench_offline(const char* section,
                      const std::vector<Observation>& stream) {
  Offline o;
  std::string live_report;
  std::string pcap = tap_pcap(stream, live_report);
  o.pcap_bytes = pcap.size();
  std::printf("%s: replaying a %" PRIu64 "-byte pcap ... ", section,
              o.pcap_bytes);
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
  o.counters = est.counters();

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

  const Offline off = bench_offline("offline", stream);

  const std::vector<Observation> long_stream = synthesize_multiwindow();
  const Offline multi = bench_offline("multiwindow", long_stream);
  const double windows =
      static_cast<double>(kLongSpanNs) /
      static_cast<double>(
          passive::PassiveRttEstimator::Config{}.anchor_window.ns());
  benchutil::shape_check(multi.counters.evicted > 0,
                         "multi-window replay evicts anchors");
  benchutil::shape_check(multi.counters.retransmit_poisoned > 0 &&
                             multi.counters.suppressed_samples > 0,
                         "multi-window replay poisons retransmitted anchors");
  using benchutil::integer, benchutil::num;
  benchutil::Json multi_json = multi.to_json();
  multi_json.add("flows", integer(kLongFlows));
  multi_json.add("payload_bytes", integer(kLongPayload));
  multi_json.add("anchor_windows", num(windows));
  multi_json.add("samples", integer(multi.counters.samples));
  multi_json.add("evicted", integer(multi.counters.evicted));
  multi_json.add("retransmit_poisoned",
                 integer(multi.counters.retransmit_poisoned));
  multi_json.add("suppressed_samples",
                 integer(multi.counters.suppressed_samples));

  // The throughput floor sits far below the millions of packets/s a
  // hash-map matcher manages in Release, but far above anything a
  // per-packet-allocation regression or an O(flows) scan would leave.
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
          {"offline", off.to_json()},
          {"multiwindow", multi_json},
      }),
      {
          benchutil::is_true("identical_reports"),
          benchutil::is_true("offline.identical"),
          benchutil::is_true("multiwindow.identical"),
          benchutil::at_least("packets_per_sec", 200000),
      });
}

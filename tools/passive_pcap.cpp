// Offline-pcap round-trip gate for the passive estimator.
//
// Runs a deterministically faulted testbed scenario (dropped data segments
// force retransmissions through the Karn-suppression path), then appraises
// the same traffic twice:
//
//   live    — PassiveRttEstimator consuming the client tap directly
//   offline — the tap serialized to a classic pcap file, re-read with
//             PcapReader, and fed to a fresh estimator
//
// The two canonical reports must be byte-identical: pcap stores microsecond
// timestamps, and the estimator quantizes its observation clock to the same
// microsecond, so nothing may survive in the live path that the offline
// path cannot reproduce. scripts/check.sh cmp's the two report files again
// and schema-checks them.
//
//   $ passive_pcap [--exchanges=N] [--pcap=PATH]
//                  [--live-report=PATH] [--offline-report=PATH]
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "core/checkpoint.h"
#include "core/testbed.h"
#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
#include "passive/rtt_estimator.h"

using namespace bnm;

int main(int argc, char** argv) {
  int exchanges = 30;
  std::string pcap_path = "passive_roundtrip.pcap";
  std::string live_path = "REPORT_passive_live.json";
  std::string offline_path = "REPORT_passive_offline.json";
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&](const char* prefix) -> const char* {
      const std::size_t n = std::strlen(prefix);
      return arg.compare(0, n, prefix) == 0 ? arg.c_str() + n : nullptr;
    };
    if (const char* s = value("--exchanges=")) {
      exchanges = std::atoi(s);
    } else if (const char* s = value("--pcap=")) {
      pcap_path = s;
    } else if (const char* s = value("--live-report=")) {
      live_path = s;
    } else if (const char* s = value("--offline-report=")) {
      offline_path = s;
    } else {
      std::fprintf(stderr,
                   "usage: %s [--exchanges=N] [--pcap=PATH] "
                   "[--live-report=PATH] [--offline-report=PATH]\n",
                   argv[0]);
      return 2;
    }
  }

  // Faulted scenario: drop the 2nd and 5th data segments toward the server
  // so the client retransmits — the report must show poisoned anchors and
  // suppressed samples, and the offline path must agree on every one.
  core::Testbed::Config tc;
  tc.seed = 20130;
  tc.tcp.timestamps = true;
  net::FaultPlan plan;
  plan.drop_nth_data_segment(2).drop_nth_data_segment(5);
  tc.faults_to_server = plan;
  core::Testbed bed{tc};

  std::size_t echoes = 0;
  std::shared_ptr<net::TcpConnection> conn;
  net::TcpCallbacks cbs;
  cbs.on_data = [&](const net::Payload&) { ++echoes; };
  cbs.on_connect = [&] {
    for (int i = 0; i < exchanges; ++i) {
      bed.sim().scheduler().schedule_after(
          sim::Duration::millis(120 * (i + 1)),
          [&] { conn->send(std::string(300, 'p')); });
    }
  };
  conn = bed.client().tcp_connect(bed.tcp_echo_endpoint(), std::move(cbs));

  const sim::TimePoint horizon =
      bed.sim().now() +
      sim::Duration::millis(120) * (exchanges + 2) + sim::Duration::seconds(5);
  bed.sim().scheduler().run_until(horizon);

  const net::PacketCapture& cap = bed.client().capture();
  std::printf("scenario: %d sends, %zu echoes, %zu captured packets\n",
              exchanges, echoes, cap.size());

  passive::PassiveRttEstimator live;
  live.consume(cap);
  const std::string live_report = live.report_json("pcap-roundtrip");

  const std::size_t pcap_bytes = net::PcapWriter::write_file(cap, pcap_path);
  std::printf("wrote %s (%zu bytes)\n", pcap_path.c_str(), pcap_bytes);

  const net::PcapReader::Result parsed = net::PcapReader::read_file(pcap_path);
  if (!parsed.ok() || parsed.records.size() != cap.size()) {
    std::fprintf(stderr, "FAIL: pcap re-read lost records (%zu of %zu)\n",
                 parsed.records.size(), cap.size());
    return 1;
  }
  passive::PassiveRttEstimator offline;
  offline.consume(parsed.records);
  const std::string offline_report = offline.report_json("pcap-roundtrip");

  if (!core::write_file_atomic(live_path, live_report) ||
      !core::write_file_atomic(offline_path, offline_report)) {
    std::fprintf(stderr, "FAIL: cannot write report files\n");
    return 1;
  }
  std::printf("wrote %s / %s (%zu / %zu bytes)\n", live_path.c_str(),
              offline_path.c_str(), live_report.size(), offline_report.size());

  const auto& c = live.counters();
  std::printf("matcher: %llu samples, %llu poisoned, %llu suppressed\n",
              static_cast<unsigned long long>(c.samples),
              static_cast<unsigned long long>(c.retransmit_poisoned),
              static_cast<unsigned long long>(c.suppressed_samples));
  if (echoes != static_cast<std::size_t>(exchanges)) {
    std::fprintf(stderr, "FAIL: only %zu of %d echoes completed\n", echoes,
                 exchanges);
    return 1;
  }
  if (c.samples == 0 || c.retransmit_poisoned == 0) {
    std::fprintf(stderr,
                 "FAIL: scenario did not exercise the matcher (samples=%llu, "
                 "poisoned=%llu)\n",
                 static_cast<unsigned long long>(c.samples),
                 static_cast<unsigned long long>(c.retransmit_poisoned));
    return 1;
  }
  if (live_report != offline_report) {
    std::fprintf(stderr,
                 "FAIL: offline pcap report differs from the live tap\n");
    return 1;
  }
  std::printf("offline pcap report is byte-identical to the live tap\n");
  return 0;
}

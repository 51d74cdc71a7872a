// Golden scenario fingerprints: one pinned 64-bit FNV-1a digest per named
// scenario, over the bytes the scenario's real writer emits (matrix,
// series, campaign and passive reports, and the pcap a tap serializes to).
// Determinism is the system's core guarantee, so any behavioural drift —
// an event retimed, an RNG draw moved, a stats fold reordered — fails here
// and names the scenario it moved. A change that is meant to alter
// behaviour re-pins the digests it moves and says why.
//
// Lives in the bnm_fingerprint_tests binary (ctest label `fingerprint`):
// the matrix scenarios run all 88 paper cells twice, heavier than tier1.
#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "browser/profile.h"
#include "core/campaign.h"
#include "core/checkpoint.h"
#include "core/experiment.h"
#include "core/fnv1a.h"
#include "core/parallel_runner.h"
#include "core/testbed.h"
#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
#include "passive/rtt_estimator.h"

namespace {

using bnm::browser::BrowserId;
using bnm::browser::OsId;
using bnm::browser::ProbeKind;
using bnm::core::ExperimentConfig;
using bnm::sim::Duration;

std::string digest(const std::string& bytes) {
  return bnm::core::hex16(bnm::core::fnv1a(bytes));
}

std::vector<ExperimentConfig> paper_cells(int runs) {
  std::vector<ExperimentConfig> cells;
  for (const auto& who : bnm::browser::paper_cases()) {
    for (const auto kind : bnm::browser::all_probe_kinds()) {
      ExperimentConfig cfg;
      cfg.browser = who.browser;
      cfg.os = who.os;
      cfg.kind = kind;
      cfg.runs = runs;
      cfg.seed = 42;
      cells.push_back(cfg);
    }
  }
  return cells;
}

std::string matrix_digest(int jobs) {
  const auto cells = paper_cells(3);
  const auto series = bnm::core::run_matrix(cells, jobs);
  EXPECT_EQ(series.size(), 88u);
  return digest(bnm::core::matrix_report_json(cells, series));
}

/// Digest of one cell's series; `healthy` cells must complete every run.
std::string cell_digest(const ExperimentConfig& cfg, bool healthy = true) {
  const auto series = bnm::core::run_experiment(cfg);
  if (healthy) {
    EXPECT_EQ(series.samples.size(), static_cast<std::size_t>(cfg.runs));
  }
  return digest(bnm::core::series_to_json(series).dump());
}

constexpr const char* kPaperMatrix = "764d57debb2e596a";

TEST(Fingerprint, PaperMatrixSerial) {
  EXPECT_EQ(matrix_digest(1), kPaperMatrix);
}

TEST(Fingerprint, PaperMatrixFourJobs) {
  EXPECT_EQ(matrix_digest(4), kPaperMatrix);
}

TEST(Fingerprint, OperaFlashPostHandshake) {
  ExperimentConfig cfg;
  cfg.browser = BrowserId::kOpera;
  cfg.os = OsId::kWindows7;
  cfg.kind = ProbeKind::kFlashPost;
  cfg.runs = 10;
  cfg.seed = 42;
  EXPECT_EQ(cell_digest(cfg), "ffd01092f6b0deb4");
}

TEST(Fingerprint, JavaDateGetTimeWindowsGranularity) {
  ExperimentConfig cfg;
  cfg.browser = BrowserId::kFirefox;
  cfg.os = OsId::kWindows7;
  cfg.kind = ProbeKind::kJavaSocket;
  cfg.java_use_nanotime = false;
  cfg.runs = 20;
  cfg.seed = 42;
  EXPECT_EQ(cell_digest(cfg), "442d9cddcb1e7b18");
}

TEST(Fingerprint, FaultedBothWaysCell) {
  ExperimentConfig cfg;
  cfg.browser = BrowserId::kChrome;
  cfg.os = OsId::kUbuntu;
  cfg.kind = ProbeKind::kXhrGet;
  cfg.runs = 12;
  cfg.seed = 42;
  cfg.sample_deadline = Duration::seconds(5);
  cfg.http_request_timeout = Duration::seconds(1);
  cfg.http_max_retries = 2;
  bnm::net::FaultPlan to_server;
  to_server.bursty_loss = bnm::net::GilbertElliottConfig{};
  to_server.bursty_loss->p_good_to_bad = 0.05;
  to_server.bursty_loss->p_bad_to_good = 0.5;
  to_server.bursty_loss->loss_bad = 0.8;
  bnm::net::FaultPlan from_server;
  from_server.drop_nth_data_segment(2).drop_nth_data_segment(9);
  cfg.testbed.faults_to_server = to_server;
  cfg.testbed.faults_from_server = from_server;
  cfg.testbed.server_jitter = Duration::millis(3);
  cfg.testbed.allow_reorder = true;
  EXPECT_EQ(cell_digest(cfg, /*healthy=*/false), "88ce6ed2fedeba38");
}

TEST(Fingerprint, CrossTrafficCell) {
  ExperimentConfig cfg;
  cfg.browser = BrowserId::kFirefox;
  cfg.os = OsId::kUbuntu;
  cfg.kind = ProbeKind::kWebSocket;
  cfg.runs = 8;
  cfg.seed = 42;
  cfg.testbed.cross_traffic_mbps = 40.0;
  EXPECT_EQ(cell_digest(cfg), "22eecbec18a1cd9c");
}

TEST(Fingerprint, Campaign2kClients) {
  bnm::core::CampaignSpec spec;
  spec.clients = 2000;
  spec.shards = 8;
  spec.runs_per_client = 1;
  bnm::core::CampaignOptions options;
  options.jobs = 2;
  const auto result = bnm::core::run_campaign(spec, options);
  EXPECT_EQ(digest(bnm::core::campaign_report_json(spec, result)),
            "de1ba1863fd55d73");
}

TEST(Fingerprint, FaultedPassiveReplayFromServerTap) {
  bnm::core::Testbed::Config tc;
  tc.seed = 20130;
  tc.tcp.timestamps = true;
  tc.capture_at_server = true;
  bnm::net::FaultPlan plan;
  plan.drop_nth_data_segment(2).drop_nth_data_segment(5);
  tc.faults_to_server = plan;
  bnm::core::Testbed bed{tc};

  std::shared_ptr<bnm::net::TcpConnection> conn;
  bnm::net::TcpCallbacks cbs;
  cbs.on_connect = [&] {
    for (int i = 0; i < 20; ++i) {
      bed.sim().scheduler().post_after(Duration::millis(120 * (i + 1)), [&] {
        conn->send(std::string(300, 'p'));
      });
    }
  };
  conn = bed.client().tcp_connect(bed.tcp_echo_endpoint(), std::move(cbs));
  bed.sim().scheduler().run_until(bed.sim().now() + Duration::seconds(8));

  std::ostringstream pcap;
  bnm::net::PcapWriter::write(bed.server().capture(), pcap);
  std::istringstream in{pcap.str()};
  const auto parsed = bnm::net::PcapReader::read(in);
  ASSERT_TRUE(parsed.ok());
  bnm::passive::PassiveRttEstimator offline;
  offline.consume(parsed.records);
  EXPECT_GT(offline.counters().retransmit_poisoned, 0u);
  EXPECT_EQ(digest(pcap.str()), "73267a9a4c7343ab");
  EXPECT_EQ(digest(offline.report_json("server-tap")), "52ad89c98d4df480");
}

}  // namespace

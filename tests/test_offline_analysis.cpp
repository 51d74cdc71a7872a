#include <gtest/gtest.h>

#include <cstdio>

#include "core/offline_analysis.h"
#include "core/testbed.h"
#include "http/client.h"
#include "net/pcap_writer.h"

namespace bnm::core {
namespace {

const net::IpAddress kClient{10, 0, 0, 1};
const net::IpAddress kServer{10, 0, 0, 2};

net::PcapRecord rec_at(double ms, net::Endpoint src, net::Endpoint dst,
                       const std::string& payload) {
  net::PcapRecord r;
  r.timestamp = sim::TimePoint::epoch() + sim::Duration::from_millis_f(ms);
  r.protocol = net::Protocol::kTcp;
  r.src = src;
  r.dst = dst;
  r.flags.ack = true;
  r.flags.psh = !payload.empty();
  r.payload_len = static_cast<std::uint32_t>(payload.size());
  return r;
}

TEST(OfflineAnalyzer, PairsRequestsWithResponses) {
  const net::Endpoint c{kClient, 50000};
  const net::Endpoint s{kServer, 80};
  std::vector<net::PcapRecord> records;
  records.push_back(rec_at(0.0, c, s, "GET 1"));
  records.push_back(rec_at(50.0, s, c, "resp 1"));
  records.push_back(rec_at(100.0, c, s, "GET 2"));
  records.push_back(rec_at(151.0, s, c, "resp 2"));

  const auto rtts =
      OfflineAnalyzer::request_response_rtts(records, kClient, 80);
  ASSERT_EQ(rtts.size(), 2u);
  EXPECT_DOUBLE_EQ(rtts[0].rtt_ms, 50.0);
  EXPECT_DOUBLE_EQ(rtts[1].rtt_ms, 51.0);
  EXPECT_EQ(rtts[0].request_bytes, 5u);
  EXPECT_EQ(rtts[0].response_bytes, 6u);
}

TEST(OfflineAnalyzer, IgnoresPureAcksAndOtherFlows) {
  const net::Endpoint c{kClient, 50000};
  const net::Endpoint s{kServer, 80};
  std::vector<net::PcapRecord> records;
  records.push_back(rec_at(0.0, c, s, "GET"));
  records.push_back(rec_at(10.0, c, s, ""));  // pure ack: ignored
  // A different flow's data, must not match.
  records.push_back(
      rec_at(20.0, net::Endpoint{kServer, 9999}, c, "other flow"));
  records.push_back(rec_at(50.0, s, c, "resp"));

  const auto rtts =
      OfflineAnalyzer::request_response_rtts(records, kClient, 80);
  ASSERT_EQ(rtts.size(), 1u);
  EXPECT_DOUBLE_EQ(rtts[0].rtt_ms, 50.0);
}

TEST(OfflineAnalyzer, UnansweredRequestDropped) {
  const net::Endpoint c{kClient, 50000};
  const net::Endpoint s{kServer, 80};
  std::vector<net::PcapRecord> records;
  records.push_back(rec_at(0.0, c, s, "GET lost"));
  records.push_back(rec_at(200.0, c, s, "GET retry"));
  records.push_back(rec_at(250.0, s, c, "resp"));
  const auto rtts =
      OfflineAnalyzer::request_response_rtts(records, kClient, 80);
  ASSERT_EQ(rtts.size(), 1u);
  EXPECT_DOUBLE_EQ(rtts[0].rtt_ms, 50.0);
}

TEST(OfflineAnalyzer, SummaryStatistics) {
  std::vector<OfflineRtt> rtts(3);
  rtts[0].rtt_ms = 50;
  rtts[1].rtt_ms = 52;
  rtts[2].rtt_ms = 51;
  const auto s = OfflineAnalyzer::summarize(rtts);
  EXPECT_EQ(s.exchanges, 3u);
  EXPECT_DOUBLE_EQ(s.min_rtt_ms, 50.0);
  EXPECT_DOUBLE_EQ(s.median_rtt_ms, 51.0);
  EXPECT_DOUBLE_EQ(s.max_rtt_ms, 52.0);
  EXPECT_EQ(OfflineAnalyzer::summarize({}).exchanges, 0u);
}

TEST(OfflineAnalyzer, EndToEndThroughPcapFile) {
  // Generate real traffic on the testbed, export the client capture to a
  // pcap file, analyze it offline: RTT ~ the 50 ms netem delay.
  Testbed::Config cfg;
  Testbed tb{cfg};
  http::HttpClient client{tb.client()};
  for (int i = 0; i < 3; ++i) {
    http::HttpRequest req;
    req.method = "GET";
    req.target = "/echo";
    client.request(tb.http_endpoint(), req,
                   [](http::HttpResponse, http::HttpClient::TransferInfo) {});
    tb.sim().scheduler().run();
  }

  const std::string path = ::testing::TempDir() + "/bnm_offline.pcap";
  net::PcapWriter::write_file(tb.client().capture(), path);

  const auto rtts = OfflineAnalyzer::analyze_file(path, kClient, 80);
  ASSERT_EQ(rtts.size(), 3u);
  for (const auto& r : rtts) {
    EXPECT_GT(r.rtt_ms, 50.0);
    EXPECT_LT(r.rtt_ms, 51.5);
  }
  std::remove(path.c_str());
}

TEST(OfflineAnalyzer, MissingFileThrows) {
  EXPECT_THROW(OfflineAnalyzer::analyze_file("/no/such.pcap", kClient, 80),
               std::runtime_error);
}

}  // namespace
}  // namespace bnm::core

#include "core/offline_analysis.h"

#include <stdexcept>

namespace bnm::core {

std::vector<OfflineRtt> OfflineAnalyzer::request_response_rtts(
    const std::vector<net::PcapRecord>& records, net::IpAddress client_ip,
    net::Port server_port) {
  std::vector<OfflineRtt> out;
  bool awaiting_response = false;
  OfflineRtt current;

  for (const net::PcapRecord& p : records) {
    if (p.payload_len == 0) continue;

    const bool outbound_request =
        p.src.ip == client_ip && p.dst.port == server_port;
    const bool inbound_response =
        p.dst.ip == client_ip && p.src.port == server_port;

    if (outbound_request) {
      if (awaiting_response) {
        // Previous request never answered; drop it and start fresh.
        awaiting_response = false;
      }
      current = OfflineRtt{};
      current.request_at = p.timestamp;
      current.request_bytes = p.payload_len;
      awaiting_response = true;
    } else if (inbound_response && awaiting_response) {
      current.response_at = p.timestamp;
      current.response_bytes = p.payload_len;
      current.rtt_ms = (current.response_at - current.request_at).ms_f();
      if (current.rtt_ms > 0) out.push_back(current);
      awaiting_response = false;
    }
  }
  return out;
}

std::vector<OfflineRtt> OfflineAnalyzer::analyze_file(const std::string& path,
                                                      net::IpAddress client_ip,
                                                      net::Port server_port) {
  const auto result = net::PcapReader::read_file(path);
  if (!result.ok()) {
    throw std::runtime_error("cannot parse pcap: " + path);
  }
  return request_response_rtts(result.records, client_ip, server_port);
}

OfflineAnalyzer::Summary OfflineAnalyzer::summarize(
    const std::vector<OfflineRtt>& rtts) {
  Summary s;
  s.exchanges = rtts.size();
  if (rtts.empty()) return s;
  std::vector<double> values;
  values.reserve(rtts.size());
  for (const auto& r : rtts) values.push_back(r.rtt_ms);
  s.min_rtt_ms = stats::min(values);
  s.median_rtt_ms = stats::median(values);
  s.max_rtt_ms = stats::max(values);
  return s;
}

}  // namespace bnm::core

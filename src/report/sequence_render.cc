#include "report/sequence_render.h"

#include <cstdio>
#include <optional>

namespace bnm::report {

std::string SequenceRenderer::describe(const net::Packet& packet) const {
  if (packet.protocol == net::Protocol::kUdp) {
    return "UDP " + std::to_string(packet.payload_size()) + "B";
  }
  std::string flags = packet.flags.to_string();
  if (packet.flags.syn && packet.flags.ack) flags = "SYN-ACK";
  else if (packet.flags.syn) flags = "SYN";
  else if (packet.flags.fin) flags = "FIN";
  else if (packet.flags.rst) flags = "RST";
  else if (packet.carries_data()) flags = "data " + std::to_string(packet.payload_size()) + "B";
  else if (packet.is_pure_ack()) flags = "ACK";
  return flags;
}

std::string SequenceRenderer::render(
    const net::PacketCapture& capture) const {
  std::string out;
  char line[256];
  std::size_t shown = 0;
  std::optional<sim::TimePoint> t0;

  std::snprintf(line, sizeof line, "%-12s %-7s %-*s %s\n", "time", "client",
                static_cast<int>(options_.arrow_width), "", "server");
  out += line;

  for (std::size_t i = 0; i < capture.size(); ++i) {
    const net::Packet& packet = capture.packet(i);
    if (options_.hide_pure_acks && packet.is_pure_ack()) continue;
    if (options_.limit > 0 && shown >= options_.limit) {
      out += "  ... (truncated)\n";
      break;
    }
    const sim::TimePoint stamp = capture.timestamp(i);
    if (!t0) t0 = stamp;
    const double ms = options_.relative_time ? (stamp - *t0).ms_f()
                                             : stamp.ms_since_epoch_f();

    const std::string label = describe(packet);
    // client ---- label ----> or <---- label ---- server
    const bool outbound =
        capture.direction(i) == net::CaptureDirection::kOutbound;
    const std::size_t w = options_.arrow_width;
    const std::size_t dashes = w > label.size() + 4 ? w - label.size() - 4 : 1;
    std::string arrow;
    arrow.reserve(dashes + label.size() + 3);
    if (!outbound) arrow += '<';
    arrow.append(dashes / 2, '-');
    arrow += ' ';
    arrow += label;
    arrow += ' ';
    arrow.append(dashes - dashes / 2, '-');
    if (outbound) arrow += '>';
    char ts[32];
    std::snprintf(ts, sizeof ts, "+%.3fms", ms);
    std::snprintf(line, sizeof line, "%-12s %-7s %-*s %s\n", ts, "client",
                  static_cast<int>(w + 2), arrow.c_str(), "server");
    out += line;
    ++shown;
  }
  if (shown == 0) out += "  (no packets matched)\n";
  return out;
}

}  // namespace bnm::report

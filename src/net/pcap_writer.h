// libpcap file writer: serializes a PacketCapture into a real .pcap file
// (LINKTYPE_IPV4) so captures from the simulated testbed can be opened in
// tcpdump/Wireshark for inspection.
//
// IPv4 and TCP/UDP headers are synthesized from packet metadata; the IPv4
// header checksum is computed for real, transport checksums are left zero
// (as many capture setups with checksum offload do).
#pragma once

#include <cstdint>
#include <ostream>
#include <string>
#include <vector>

#include "net/capture.h"

namespace bnm::net {

class PcapWriter {
 public:
  /// LINKTYPE_RAW (101): packets begin with the IPv4 header.
  static constexpr std::uint32_t kLinkTypeRaw = 101;

  /// Serialize `capture` to `out` in classic pcap format (microsecond
  /// timestamps, magic 0xa1b2c3d4). Returns bytes written; throws
  /// std::runtime_error when `out` has failed by the last record.
  static std::size_t write(const PacketCapture& capture, std::ostream& out);

  /// Convenience: write to a file path. Returns bytes written; throws
  /// std::runtime_error when the file cannot be opened or a write fails.
  static std::size_t write_file(const PacketCapture& capture,
                                const std::string& path);

  /// Synthesize the on-wire bytes (IPv4 + transport + payload) for one
  /// packet; exposed for tests.
  static std::vector<std::uint8_t> synthesize_frame(const Packet& packet);

  /// RFC 1071 internet checksum over `data` (exposed for tests).
  static std::uint16_t internet_checksum(const std::uint8_t* data,
                                         std::size_t len);
};

}  // namespace bnm::net

// libpcap file reader: the inverse of PcapWriter. Parses classic pcap
// (microsecond timestamps, LINKTYPE_RAW IPv4) back into packet records, so
// captures can round-trip through files and externally produced captures
// can be analysed with the library's capture tooling.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"

namespace bnm::net {

struct PcapRecord {
  sim::TimePoint timestamp;
  Packet packet;
};

class PcapReader {
 public:
  enum class Error {
    kNone,
    kBadMagic,
    kUnsupportedLinkType,
    kTruncated,
    kBadIpHeader,
  };

  struct Result {
    Error error = Error::kNone;
    std::uint32_t link_type = 0;
    std::vector<PcapRecord> records;
    bool ok() const { return error == Error::kNone; }
  };

  /// Parse a whole pcap stream. Transport payloads are preserved;
  /// timestamps become TimePoints relative to the epoch. The rest of the
  /// stream is read into one buffer: every record's payload is a zero-copy
  /// view of it and keeps it alive, so records outlive the stream.
  /// Lengths are bounds-checked against the bytes read before use.
  ///
  /// Cost: a pre-walk over the record headers, with the same bounds
  /// checks, counts the complete records so `records` is reserved once.
  /// Each frame is then parsed in place from the buffer straight into its
  /// record, so a record costs one buffer reference (its transport
  /// payload; none when that is empty) and no allocation. On an error,
  /// `records` holds the records before the failing one.
  static Result read(std::istream& in);
  /// read() over a file; an unopenable file is kTruncated.
  static Result read_file(const std::string& path);

  /// Parse one on-wire IPv4 frame (header + transport + payload) into a
  /// Packet, with the same checks read() applies to each record. The
  /// packet's payload is a zero-copy subview of `frame`'s buffer. Returns
  /// nullopt on malformed input. Exposed for tests.
  static std::optional<Packet> parse_frame(const Payload& frame);
};

}  // namespace bnm::net

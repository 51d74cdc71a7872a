// libpcap file reader: the inverse of PcapWriter. Parses classic pcap
// (microsecond timestamps, LINKTYPE_RAW IPv4) back into flat header
// records, so captures can round-trip through files and externally
// produced captures can be analysed with the library's capture tooling.
#pragma once

#include <cstdint>
#include <istream>
#include <optional>
#include <string>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"

namespace bnm::net {

/// One pcap record as the passive path reads it: the capture time and the
/// header fields a TSval/TSecr matcher uses (DlyLoc's field set), flat.
/// It references no bytes. UDP records leave the TCP-only fields at their
/// defaults.
struct PcapRecord {
  sim::TimePoint timestamp;
  Endpoint src;
  Endpoint dst;
  std::uint32_t seq = 0;
  std::uint32_t ack = 0;
  TcpTimestampOption ts;
  std::uint32_t payload_len = 0;  ///< transport payload bytes
  Protocol protocol = Protocol::kTcp;
  TcpFlags flags;

  /// The header fields of `pkt` seen at `at`.
  static PcapRecord of(const Packet& pkt, sim::TimePoint at) {
    return {at,     pkt.src, pkt.dst, pkt.seq, pkt.ack,
            pkt.ts, static_cast<std::uint32_t>(pkt.payload.size()),
            pkt.protocol, pkt.flags};
  }
  bool operator==(const PcapRecord&) const = default;
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

  /// Parse a whole pcap stream into flat header records; timestamps
  /// become TimePoints relative to the epoch. A record keeps no payload
  /// bytes and no reference to the stream (`payload_len` counts the
  /// transport payload the frame holds), so records outlive the stream.
  /// For full packets, payload bytes included, run parse_frame() over a
  /// record's frame. Lengths are bounds-checked against the bytes read
  /// before use.
  ///
  /// Cost: the stream is read through one 64 KiB window, filled with
  /// `rdbuf()->sgetn`, and each frame is parsed in place from the window
  /// straight into its record: no stream-sized buffer, no allocation and
  /// no reference count per record. Only a frame longer than the window
  /// grows it, by doubling once it is full of delivered bytes. When
  /// `rdbuf()->in_avail()` tells the bytes left, `records` is reserved
  /// once, after the first 512 records, for the rest at their density
  /// plus an eighth (never more than the bytes could hold), so it stays
  /// near the size it needs; otherwise it grows as it fills. On an error,
  /// `records` holds the records before the failing one, and the stream
  /// is left wherever the window stopped reading.
  static Result read(std::istream& in);
  /// read() over a file; an unopenable file is kTruncated.
  static Result read_file(const std::string& path);

  /// Parse one on-wire IPv4 frame (header + transport + payload) into a
  /// Packet. The same walk read() runs, with the same checks, fills the
  /// header fields and here also the IP id and TCP window; the payload is
  /// a zero-copy subview of `frame`'s buffer. Returns nullopt on malformed
  /// input.
  static std::optional<Packet> parse_frame(const Payload& frame);
};

}  // namespace bnm::net

#include "net/pcap_reader.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "net/pcap_writer.h"

namespace bnm::net {

namespace {

/// The rest of `in` in one buffer. in_avail() is the whole rest of an
/// in-memory stream, so one read usually takes everything; a stream that
/// reports less is read in doubling chunks.
std::vector<std::uint8_t> read_all(std::istream& in) {
  std::vector<std::uint8_t> bytes;
  while (in && in.peek() != std::istream::traits_type::eof()) {
    const std::size_t have = bytes.size();
    const std::streamsize chunk = std::max<std::streamsize>(
        {in.rdbuf()->in_avail(), static_cast<std::streamsize>(have), 4096});
    bytes.resize(have + static_cast<std::size_t>(chunk));
    in.read(reinterpret_cast<char*>(bytes.data() + have), chunk);
    bytes.resize(have + static_cast<std::size_t>(in.gcount()));
  }
  return bytes;
}

std::uint32_t u32le(const unsigned char* p) {
  return static_cast<std::uint32_t>(p[0]) |
         (static_cast<std::uint32_t>(p[1]) << 8) |
         (static_cast<std::uint32_t>(p[2]) << 16) |
         (static_cast<std::uint32_t>(p[3]) << 24);
}

std::uint16_t u16be(const unsigned char* p) {
  return static_cast<std::uint16_t>((p[0] << 8) | p[1]);
}

std::uint32_t u32be(const unsigned char* p) {
  return (static_cast<std::uint32_t>(p[0]) << 24) |
         (static_cast<std::uint32_t>(p[1]) << 16) |
         (static_cast<std::uint32_t>(p[2]) << 8) | p[3];
}

}  // namespace

std::optional<Packet> PcapReader::parse_frame(const Payload& frame) {
  if (frame.size() < kIpHeaderBytes) return std::nullopt;
  const unsigned char* p = frame.data();
  if ((p[0] >> 4) != 4) return std::nullopt;  // IPv4 only
  const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0f) * 4;
  if (ihl < kIpHeaderBytes || frame.size() < ihl) return std::nullopt;
  const std::size_t total = u16be(p + 2);
  if (total < ihl || total > frame.size()) return std::nullopt;

  Packet pkt;
  pkt.id = u16be(p + 4);
  pkt.src.ip = IpAddress{u32be(p + 12)};
  pkt.dst.ip = IpAddress{u32be(p + 16)};

  const unsigned char proto = p[9];
  const unsigned char* t = p + ihl;
  const std::size_t remaining = total - ihl;

  if (proto == 6) {
    pkt.protocol = Protocol::kTcp;
    if (remaining < kTcpHeaderBytes) return std::nullopt;
    pkt.src.port = u16be(t);
    pkt.dst.port = u16be(t + 2);
    pkt.seq = u32be(t + 4);
    pkt.ack = u32be(t + 8);
    const std::size_t data_offset = static_cast<std::size_t>(t[12] >> 4) * 4;
    if (data_offset < kTcpHeaderBytes || remaining < data_offset) {
      return std::nullopt;
    }
    const unsigned char flags = t[13];
    pkt.flags.fin = flags & 0x01;
    pkt.flags.syn = flags & 0x02;
    pkt.flags.rst = flags & 0x04;
    pkt.flags.psh = flags & 0x08;
    pkt.flags.ack = flags & 0x10;
    pkt.window = u16be(t + 14);
    // Walk the option bytes for the RFC 7323 timestamp (kind 8, len 10).
    for (std::size_t o = kTcpHeaderBytes; o < data_offset;) {
      const unsigned char kind = t[o];
      if (kind == 0) break;  // end of option list
      if (kind == 1) {       // NOP pad
        ++o;
        continue;
      }
      if (o + 1 >= data_offset) break;
      const std::size_t len = t[o + 1];
      if (len < 2 || o + len > data_offset) break;  // malformed: stop
      if (kind == 8 && len == 10) {
        pkt.ts.present = true;
        pkt.ts.tsval = u32be(t + o + 2);
        pkt.ts.tsecr = u32be(t + o + 6);
      }
      o += len;
    }
    pkt.payload = frame.subview(ihl + data_offset, remaining - data_offset);
  } else if (proto == 17) {
    pkt.protocol = Protocol::kUdp;
    if (remaining < kUdpHeaderBytes) return std::nullopt;
    pkt.src.port = u16be(t);
    pkt.dst.port = u16be(t + 2);
    const std::size_t udp_len = u16be(t + 4);
    if (udp_len < kUdpHeaderBytes || udp_len > remaining) return std::nullopt;
    pkt.payload = frame.subview(ihl + kUdpHeaderBytes, udp_len - kUdpHeaderBytes);
  } else {
    return std::nullopt;  // other protocols not modelled
  }
  return pkt;
}

PcapReader::Result PcapReader::read(std::istream& in) {
  Result result;
  const auto fail = [&result](Error error) {
    result.error = error;
    return std::move(result);
  };
  // One buffer for the whole stream; every record's payload aliases it.
  const Payload stream{read_all(in)};
  const unsigned char* p = stream.data();
  const std::size_t size = stream.size();
  constexpr std::size_t kFileHeader = 24;
  constexpr std::size_t kRecordHeader = 16;

  // Big-endian or nanosecond variants are not produced by PcapWriter.
  if (size >= 4 && u32le(p) != 0xa1b2c3d4) return fail(Error::kBadMagic);
  if (size < kFileHeader) return fail(Error::kTruncated);
  result.link_type = u32le(p + 20);
  if (result.link_type != PcapWriter::kLinkTypeRaw) {
    return fail(Error::kUnsupportedLinkType);
  }

  // Every length is checked against the bytes at hand before it is used,
  // so a hostile incl_len costs nothing. Fewer than 4 bytes at a record
  // boundary (not even a timestamp) is a clean end of file.
  for (std::size_t off = kFileHeader; size - off >= 4;) {
    if (size - off < kRecordHeader) return fail(Error::kTruncated);
    const std::size_t incl_len = u32le(p + off + 8);
    if (incl_len > size - off - kRecordHeader) return fail(Error::kTruncated);
    auto packet = parse_frame(stream.subview(off + kRecordHeader, incl_len));
    if (!packet) return fail(Error::kBadIpHeader);
    const std::int64_t ts_sec = u32le(p + off);
    const std::int64_t ts_usec = u32le(p + off + 4);
    result.records.push_back(PcapRecord{
        sim::TimePoint::from_ns(ts_sec * 1'000'000'000 + ts_usec * 1'000),
        std::move(*packet)});
    off += kRecordHeader + incl_len;
  }
  return result;
}

PcapReader::Result PcapReader::read_file(const std::string& path) {
  std::ifstream in{path, std::ios::binary};
  if (!in) {
    Result r;
    r.error = Error::kTruncated;
    return r;
  }
  return read(in);
}

}  // namespace bnm::net

#include "net/pcap_reader.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <memory>
#include <utility>

#include "net/pcap_writer.h"

namespace bnm::net {

namespace {

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

constexpr std::size_t kFileHeader = 24;
constexpr std::size_t kRecordHeader = 16;

/// Parses the on-wire IPv4 frame at `p` (`len` bytes) into `rec`, a default
/// record: the one frame walker. With `full` given, the walk also sets its IP
/// id and TCP window, the header fields a record does not carry. Returns the
/// offset of the transport payload in the frame, or 0 on malformed input (a
/// payload never starts there).
std::size_t parse_frame_at(const unsigned char* p, std::size_t len,
                           PcapRecord& rec, Packet* full = nullptr) {
  if (len < kIpHeaderBytes) return 0;
  if ((p[0] >> 4) != 4) return 0;  // IPv4 only
  const std::size_t ihl = static_cast<std::size_t>(p[0] & 0x0f) * 4;
  if (ihl < kIpHeaderBytes || len < ihl) return 0;
  const std::size_t total = u16be(p + 2);
  if (total < ihl || total > len) return 0;

  rec.src.ip = IpAddress{u32be(p + 12)};
  rec.dst.ip = IpAddress{u32be(p + 16)};
  if (full != nullptr) full->id = u16be(p + 4);

  const unsigned char proto = p[9];
  const unsigned char* t = p + ihl;
  const std::size_t remaining = total - ihl;

  if (proto == 6) {
    rec.protocol = Protocol::kTcp;
    if (remaining < kTcpHeaderBytes) return 0;
    rec.src.port = u16be(t);
    rec.dst.port = u16be(t + 2);
    rec.seq = u32be(t + 4);
    rec.ack = u32be(t + 8);
    const std::size_t data_offset = static_cast<std::size_t>(t[12] >> 4) * 4;
    if (data_offset < kTcpHeaderBytes || remaining < data_offset) {
      return 0;
    }
    const unsigned char flags = t[13];
    if (full != nullptr) full->window = u16be(t + 14);
    rec.flags.fin = flags & 0x01;
    rec.flags.syn = flags & 0x02;
    rec.flags.rst = flags & 0x04;
    rec.flags.psh = flags & 0x08;
    rec.flags.ack = flags & 0x10;
    // Walk the option bytes for the RFC 7323 timestamp (kind 8, len 10).
    for (std::size_t o = kTcpHeaderBytes; o < data_offset;) {
      const unsigned char kind = t[o];
      if (kind == 0) break;  // end of option list
      if (kind == 1) {       // NOP pad
        ++o;
        continue;
      }
      if (o + 1 >= data_offset) break;
      const std::size_t opt_len = t[o + 1];
      if (opt_len < 2 || o + opt_len > data_offset) break;  // malformed: stop
      if (kind == 8 && opt_len == 10) {
        rec.ts.present = true;
        rec.ts.tsval = u32be(t + o + 2);
        rec.ts.tsecr = u32be(t + o + 6);
      }
      o += opt_len;
    }
    rec.payload_len = static_cast<std::uint32_t>(remaining - data_offset);
    return ihl + data_offset;
  }
  if (proto == 17) {
    rec.protocol = Protocol::kUdp;
    if (remaining < kUdpHeaderBytes) return 0;
    rec.src.port = u16be(t);
    rec.dst.port = u16be(t + 2);
    const std::size_t udp_len = u16be(t + 4);
    if (udp_len < kUdpHeaderBytes || udp_len > remaining) return 0;
    rec.payload_len = static_cast<std::uint32_t>(udp_len - kUdpHeaderBytes);
    return ihl + kUdpHeaderBytes;
  }
  return 0;  // other protocols not modelled
}

/// Fewest bytes a record read() keeps can take: its header and an IPv4
/// header carrying a UDP header.
constexpr std::size_t kMinRecord =
    kRecordHeader + kIpHeaderBytes + kUdpHeaderBytes;
/// Records read before `records` is reserved: the bytes they took (about
/// one window's worth in a capture of ~116-byte frames) tell the stream's
/// density. Fewer would see mostly a capture's handshakes, which are
/// smaller than its data segments, and reserve too much.
constexpr std::size_t kDensitySample = 512;

/// The bytes of a stream, seen through one window of kWindow bytes that
/// slides over it: need(n) makes the next `n` bytes contiguous at data(),
/// reading on from the stream buffer only when the window holds fewer.
/// The window grows past kWindow only when it is full of bytes the stream
/// delivered (a frame longer than the window), and then doubles, so its
/// size never exceeds twice what was read: a length field the stream does
/// not back costs no allocation.
class StreamWindow {
 public:
  static constexpr std::size_t kWindow = 64 * 1024;

  /// A stream that is not good() reads as empty.
  explicit StreamWindow(std::istream& in)
      : src_{in.good() ? in.rdbuf() : nullptr} {}

  /// True when the next `n` bytes are at data(); false when the stream
  /// ended first, and then size() bytes are left.
  bool need(std::size_t n) { return size() >= n || read_on(n); }
  const unsigned char* data() const { return buf_.get() + begin_; }
  std::size_t size() const { return end_ - begin_; }
  void skip(std::size_t n) { begin_ += n; }
  /// Bytes of the stream before data().
  std::size_t offset() const { return delivered_ - size(); }

 private:
  bool read_on(std::size_t n) {
    while (size() < n && src_ != nullptr) {
      if (begin_ > 0 && cap_ - begin_ < n) {  // slide what is left to the front
        std::memmove(buf_.get(), data(), size());
        end_ -= begin_;
        begin_ = 0;
      }
      if (end_ == cap_) {  // full of delivered bytes: double
        const std::size_t cap = cap_ == 0 ? kWindow : 2 * cap_;
        auto grown = std::make_unique_for_overwrite<unsigned char[]>(cap);
        if (end_ > 0) std::memcpy(grown.get(), buf_.get(), end_);
        buf_ = std::move(grown);
        cap_ = cap;
      }
      const std::streamsize got =
          src_->sgetn(reinterpret_cast<char*>(buf_.get() + end_),
                      static_cast<std::streamsize>(cap_ - end_));
      if (got > 0) {
        end_ += static_cast<std::size_t>(got);
        delivered_ += static_cast<std::size_t>(got);
      } else {
        src_ = nullptr;
      }
    }
    return size() >= n;
  }

  std::streambuf* src_;  ///< null once the stream ended
  std::unique_ptr<unsigned char[]> buf_;
  std::size_t cap_ = 0;
  std::size_t begin_ = 0;
  std::size_t end_ = 0;
  std::size_t delivered_ = 0;
};

}  // namespace

std::optional<Packet> PcapReader::parse_frame(const Payload& frame) {
  PcapRecord rec;
  Packet pkt;
  const std::size_t payload_at =
      parse_frame_at(frame.data(), frame.size(), rec, &pkt);
  if (payload_at == 0) return std::nullopt;
  pkt.protocol = rec.protocol;
  pkt.src = rec.src;
  pkt.dst = rec.dst;
  pkt.flags = rec.flags;
  pkt.seq = rec.seq;
  pkt.ack = rec.ack;
  pkt.ts = rec.ts;
  pkt.payload = frame.subview(payload_at, rec.payload_len);
  return pkt;
}

PcapReader::Result PcapReader::read(std::istream& in) {
  Result result;
  const auto fail = [&result](Error error) {
    result.error = error;
    return std::move(result);
  };
  // What the stream buffer says it holds, before the window takes any.
  const std::streamsize avail = in.good() ? in.rdbuf()->in_avail() : 0;
  const std::size_t rest =
      avail > static_cast<std::streamsize>(kFileHeader)
          ? static_cast<std::size_t>(avail) - kFileHeader
          : 0;
  StreamWindow window{in};
  window.need(kFileHeader);
  const unsigned char* p = window.data();

  // Big-endian or nanosecond variants are not produced by PcapWriter.
  if (window.size() >= 4 && u32le(p) != 0xa1b2c3d4) {
    return fail(Error::kBadMagic);
  }
  if (window.size() < kFileHeader) return fail(Error::kTruncated);
  result.link_type = u32le(p + 20);
  if (result.link_type != PcapWriter::kLinkTypeRaw) {
    return fail(Error::kUnsupportedLinkType);
  }
  window.skip(kFileHeader);

  // Every length is checked against the bytes the stream delivered before
  // it is used, so a hostile incl_len costs nothing. Fewer than 4 bytes at
  // a record boundary (not even a timestamp) is a clean end of file. Each
  // frame is parsed in place from the window, straight into its record.
  for (;;) {
    if (!window.need(kRecordHeader)) {
      if (window.size() < 4) return result;
      return fail(Error::kTruncated);
    }
    const std::size_t incl_len = u32le(window.data() + 8);
    if (!window.need(kRecordHeader + incl_len)) return fail(Error::kTruncated);
    const unsigned char* h = window.data();
    PcapRecord& rec = result.records.emplace_back();
    if (parse_frame_at(h + kRecordHeader, incl_len, rec) == 0) {
      result.records.pop_back();
      return fail(Error::kBadIpHeader);
    }
    const std::int64_t ts_sec = u32le(h);
    const std::int64_t ts_usec = u32le(h + 4);
    rec.timestamp =
        sim::TimePoint::from_ns(ts_sec * 1'000'000'000 + ts_usec * 1'000);
    window.skip(kRecordHeader + incl_len);
    if (result.records.size() == kDensitySample && rest > 0) {
      // Reserve once for the rest at the density so far, an eighth more
      // for a capture whose later records are smaller, and never more
      // than the bytes could hold; a denser stream grows by doubling.
      const std::size_t used = window.offset() - kFileHeader;
      const std::size_t likely = rest * kDensitySample / used * 9 / 8;
      result.records.reserve(std::min(likely, rest / kMinRecord));
    }
  }
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

#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "net/capture.h"
#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
#include "pcap_streams.h"
#include "sim/random.h"
#include "sim/simulation.h"

namespace bnm::net {
namespace {

Packet sample_tcp() {
  Packet p;
  p.id = 7;
  p.protocol = Protocol::kTcp;
  p.src = {IpAddress{10, 0, 0, 1}, 49200};
  p.dst = {IpAddress{10, 0, 0, 2}, 80};
  p.flags.ack = true;
  p.flags.psh = true;
  p.seq = 123456;
  p.ack = 654321;
  p.payload = to_bytes("GET / HTTP/1.1\r\n\r\n");
  return p;
}

Packet sample_udp() {
  Packet p;
  p.protocol = Protocol::kUdp;
  p.src = {IpAddress{10, 0, 0, 1}, 50001};
  p.dst = {IpAddress{10, 0, 0, 2}, 9001};
  p.payload = to_bytes("probe");
  return p;
}

TEST(PcapReader, ParseFrameRoundTripsTcp) {
  const Packet original = sample_tcp();
  const auto parsed =
      PcapReader::parse_frame(PcapWriter::synthesize_frame(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->protocol, Protocol::kTcp);
  EXPECT_EQ(parsed->src, original.src);
  EXPECT_EQ(parsed->dst, original.dst);
  EXPECT_EQ(parsed->seq, original.seq);
  EXPECT_EQ(parsed->ack, original.ack);
  EXPECT_EQ(parsed->flags, original.flags);
  EXPECT_EQ(parsed->payload, original.payload);
}

TEST(PcapReader, ParseFrameRoundTripsUdp) {
  const Packet original = sample_udp();
  const auto parsed =
      PcapReader::parse_frame(PcapWriter::synthesize_frame(original));
  ASSERT_TRUE(parsed.has_value());
  EXPECT_EQ(parsed->protocol, Protocol::kUdp);
  EXPECT_EQ(parsed->src, original.src);
  EXPECT_EQ(parsed->dst, original.dst);
  EXPECT_EQ(to_string(parsed->payload), "probe");
}

TEST(PcapReader, ParseFrameRejectsGarbage) {
  EXPECT_FALSE(PcapReader::parse_frame({}).has_value());
  EXPECT_FALSE(PcapReader::parse_frame(Payload{std::string{"too short"}}).has_value());
  std::vector<std::uint8_t> frame = PcapWriter::synthesize_frame(sample_tcp());
  frame[0] = 0x65;  // IPv6-ish version nibble
  EXPECT_FALSE(PcapReader::parse_frame(frame).has_value());
}

TEST(PcapReader, StreamRoundTripPreservesTimestampsAndOrder) {
  sim::Simulation sim{1};
  PacketCapture cap{sim};
  sim.scheduler().schedule_after(sim::Duration::millis(5), [&] {
    cap.record(CaptureDirection::kOutbound, sample_tcp());
  });
  sim.scheduler().schedule_after(sim::Duration::millis(55), [&] {
    cap.record(CaptureDirection::kInbound, sample_udp());
  });
  sim.scheduler().run();

  std::stringstream buf;
  PcapWriter::write(cap, buf);
  const auto result = PcapReader::read(buf);
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.records.size(), 2u);
  EXPECT_EQ(result.records[0].protocol, Protocol::kTcp);
  EXPECT_EQ(result.records[1].protocol, Protocol::kUdp);
  // Microsecond timestamp fidelity.
  EXPECT_EQ(result.records[0].timestamp.ns_since_epoch(), 5'000'000);
  EXPECT_EQ(result.records[1].timestamp.ns_since_epoch(), 55'000'000);
}

TEST(PcapReader, RejectsBadMagic) {
  std::stringstream buf;
  buf << "not a pcap file at all";
  const auto result = PcapReader::read(buf);
  EXPECT_EQ(result.error, PcapReader::Error::kBadMagic);
}

TEST(PcapReader, DetectsTruncation) {
  sim::Simulation sim{2};
  PacketCapture cap{sim};
  cap.record(CaptureDirection::kOutbound, sample_tcp());
  std::stringstream buf;
  PcapWriter::write(cap, buf);
  std::string bytes = buf.str();
  bytes.resize(bytes.size() - 5);  // chop the last record
  std::stringstream cut{bytes};
  const auto result = PcapReader::read(cut);
  EXPECT_EQ(result.error, PcapReader::Error::kTruncated);
}

TEST(PcapReader, EmptyCaptureReadsCleanly) {
  sim::Simulation sim{3};
  PacketCapture cap{sim};
  std::stringstream buf;
  PcapWriter::write(cap, buf);
  const auto result = PcapReader::read(buf);
  ASSERT_TRUE(result.ok());
  EXPECT_TRUE(result.records.empty());
  EXPECT_EQ(result.link_type, PcapWriter::kLinkTypeRaw);
}

TEST(PcapReader, FileRoundTrip) {
  sim::Simulation sim{4};
  PacketCapture cap{sim};
  cap.record(CaptureDirection::kOutbound, sample_udp());
  const std::string path = ::testing::TempDir() + "/bnm_reader_test.pcap";
  PcapWriter::write_file(cap, path);
  const auto result = PcapReader::read_file(path);
  ASSERT_TRUE(result.ok());
  EXPECT_EQ(result.records.size(), 1u);
  std::remove(path.c_str());
}

TEST(PcapReader, MissingFileErrors) {
  const auto result = PcapReader::read_file("/nonexistent/nope.pcap");
  EXPECT_FALSE(result.ok());
}

// --- stream reader: hostile lengths, truncation, aliasing ------------------

std::string le32(std::uint32_t v) {
  std::string b(4, '\0');
  for (int i = 0; i < 4; ++i) b[i] = static_cast<char>((v >> (8 * i)) & 0xff);
  return b;
}

std::string global_header() {
  return le32(0xa1b2c3d4) + le32(0x00040002) + le32(0) + le32(0) +
         le32(65535) + le32(PcapWriter::kLinkTypeRaw);
}

TEST(PcapReader, HostileInclLenIsTruncationNotAnAllocation) {
  // One record header claiming a 4 GiB frame in a 40-byte file: the reader
  // must notice the missing bytes before it sizes anything by incl_len.
  const std::string bytes = global_header() + le32(0) + le32(0) +
                            le32(0xFFFFFFFFu) + le32(0xFFFFFFFFu);
  ASSERT_EQ(bytes.size(), 40u);
  std::stringstream in{bytes};
  const auto result = PcapReader::read(in);
  EXPECT_EQ(result.error, PcapReader::Error::kTruncated);
  EXPECT_TRUE(result.records.empty());
}

/// Three records (TCP with timestamps, UDP, bare TCP) written by PcapWriter.
std::vector<Packet> three_packets() {
  Packet ts = sample_tcp();
  ts.ts.present = true;
  ts.ts.tsval = 0x01020304;
  ts.ts.tsecr = 0x0a0b0c0d;
  Packet bare = sample_tcp();
  bare.payload = to_bytes("HTTP/1.1 200 OK\r\n\r\nhello");
  return {ts, sample_udp(), bare};
}

std::string three_record_pcap() {
  sim::Simulation sim{5};
  PacketCapture cap{sim};
  for (const Packet& p : three_packets()) {
    cap.record(CaptureDirection::kOutbound, p);
  }
  std::stringstream buf;
  PcapWriter::write(cap, buf);
  return buf.str();
}

TEST(PcapReader, TruncationAtEveryByteOffset) {
  const std::string full = three_record_pcap();
  // Record end offsets, from each record header's incl_len.
  std::vector<std::size_t> ends;
  for (std::size_t off = 24; off < full.size();) {
    std::uint32_t incl = 0;
    for (int i = 3; i >= 0; --i) {
      incl = (incl << 8) | static_cast<unsigned char>(full[off + 8 + i]);
    }
    off += 16 + incl;
    ends.push_back(off);
  }
  ASSERT_EQ(ends.size(), 3u);
  ASSERT_EQ(ends.back(), full.size());

  for (std::size_t len = 0; len <= full.size(); ++len) {
    SCOPED_TRACE("prefix length " + std::to_string(len));
    // What the reader must report for this prefix: a short global header
    // or a cut inside a record is truncation; 0-3 stray bytes after the
    // last whole record (too few for a timestamp) read as a clean end.
    PcapReader::Error want_error = PcapReader::Error::kTruncated;
    std::size_t want_records = 0;
    if (len >= 24) {
      std::size_t whole = 0;
      std::size_t last_end = 24;
      while (whole < ends.size() && ends[whole] <= len) last_end = ends[whole++];
      want_records = whole;
      if (len - last_end < 4) want_error = PcapReader::Error::kNone;
    }
    std::stringstream in{full.substr(0, len)};
    const auto result = PcapReader::read(in);
    EXPECT_EQ(result.error, want_error);
    EXPECT_EQ(result.records.size(), want_records);
  }
}

/// A seeded mix of TCP segments with timestamps, TCP segments without them
/// and UDP datagrams, with random endpoints, flags, sequence numbers and
/// payload sizes (empty included), recorded at whole microseconds.
std::vector<Packet> mixed_packets(std::uint64_t seed, int n) {
  sim::Rng rng{seed};
  const auto u32 = [&rng] {
    return static_cast<std::uint32_t>(rng.next_u64());
  };
  std::vector<Packet> out;
  for (int i = 0; i < n; ++i) {
    Packet p;
    p.id = rng.next_u64() & 0xffff;
    const auto kind = rng.uniform_int(0, 2);  // TCP+TS, bare TCP, UDP
    p.protocol = kind == 2 ? Protocol::kUdp : Protocol::kTcp;
    p.src = {IpAddress{u32()}, static_cast<Port>(u32())};
    p.dst = {IpAddress{u32()}, static_cast<Port>(u32())};
    if (p.protocol == Protocol::kTcp) {
      p.flags.syn = rng.chance(0.2);
      p.flags.ack = rng.chance(0.8);
      p.flags.fin = rng.chance(0.1);
      p.flags.rst = rng.chance(0.05);
      p.flags.psh = rng.chance(0.5);
      p.seq = u32();
      p.ack = u32();
      p.window = static_cast<std::uint16_t>(u32());
      if (kind == 0) p.ts = {true, u32(), u32()};
    }
    p.payload = Payload{std::string(
        static_cast<std::size_t>(rng.uniform_int(0, 300)),
        static_cast<char>('a' + i % 26))};
    out.push_back(std::move(p));
  }
  return out;
}

TEST(PcapReader, FlatRecordsMatchParseFrameOnEveryFrame) {
  // One walker fills both record kinds: the flat header record read()
  // returns and the Packet parse_frame() builds over the same frame.
  const std::vector<Packet> written = mixed_packets(0x9ca9'f1a7, 600);
  sim::Simulation sim{6};
  PacketCapture cap{sim};
  for (std::size_t i = 0; i < written.size(); ++i) {
    sim.scheduler().schedule_after(
        sim::Duration::micros(static_cast<std::int64_t>(7 * i + 3)),
        [&, i] { cap.record(CaptureDirection::kOutbound, written[i]); });
  }
  sim.scheduler().run();
  std::stringstream out;
  PcapWriter::write(cap, out);
  const std::string bytes = out.str();

  PcapReader::Result result;
  {
    auto in = std::make_unique<std::stringstream>(bytes);
    result = PcapReader::read(*in);
  }  // the stream and its buffer are gone; the records must not care
  ASSERT_TRUE(result.ok());
  ASSERT_EQ(result.records.size(), written.size());

  int kinds[3] = {0, 0, 0};
  std::size_t off = 24;  // the first record header
  for (std::size_t i = 0; i < written.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    std::uint32_t incl = 0;
    for (int b = 3; b >= 0; --b) {
      incl = (incl << 8) | static_cast<unsigned char>(bytes[off + 8 + b]);
    }
    const Payload frame{bytes.substr(off + 16, incl)};
    off += 16 + incl;
    const auto pkt = PcapReader::parse_frame(frame);
    ASSERT_TRUE(pkt.has_value());
    const PcapRecord& rec = result.records[i];
    EXPECT_EQ(rec, PcapRecord::of(*pkt, rec.timestamp));
    EXPECT_EQ(rec.payload_len, pkt->payload.size());
    // And both agree with what was written.
    const Packet& w = written[i];
    EXPECT_EQ(rec, PcapRecord::of(w, cap.timestamp(i)));
    EXPECT_EQ(pkt->id, w.id);
    EXPECT_EQ(pkt->window, w.window);
    EXPECT_EQ(pkt->payload.as_string(), w.payload.as_string());
    ++kinds[w.protocol == Protocol::kUdp ? 2 : w.ts.present ? 0 : 1];
  }
  EXPECT_EQ(off, bytes.size());
  EXPECT_GT(kinds[0], 100);  // TCP with timestamps
  EXPECT_GT(kinds[1], 100);  // TCP without them
  EXPECT_GT(kinds[2], 100);  // UDP
}

/// `packets` recorded 7 us apart by a tap, in classic pcap bytes.
std::string pcap_of(const std::vector<Packet>& packets) {
  sim::Simulation sim{7};
  PacketCapture cap{sim};
  for (std::size_t i = 0; i < packets.size(); ++i) {
    sim.scheduler().schedule_after(
        sim::Duration::micros(static_cast<std::int64_t>(7 * i + 3)),
        [&, i] { cap.record(CaptureDirection::kOutbound, packets[i]); });
  }
  sim.scheduler().run();
  std::stringstream out;
  PcapWriter::write(cap, out);
  return out.str();
}

TEST(PcapReader, PipeLikeStreamReadsLikeAWholeStream) {
  // A stream that hands out 1-7 bytes per underflow and reports nothing in
  // in_avail() gives the reader no size to reserve by and no batch longer
  // than a record header; it must still return the same Result as the
  // whole string, on a capture several windows long and on every prefix
  // of a short one (errors and the records before them included).
  const std::string many = pcap_of(mixed_packets(0x7e1c'0b5e, 1500));
  ASSERT_GT(many.size(), 3u * 64 * 1024);
  test::TrickleBuf probe{many};
  EXPECT_EQ(probe.in_avail(), 0);
  const auto whole = test::read_whole(many);
  ASSERT_TRUE(whole.ok());
  ASSERT_EQ(whole.records.size(), 1500u);
  EXPECT_TRUE(test::same_result(whole, test::read_trickled(many)));

  const std::string few = three_record_pcap();
  for (std::size_t len = 0; len <= few.size(); ++len) {
    const std::string prefix = few.substr(0, len);
    EXPECT_TRUE(
        test::same_result(test::read_whole(prefix), test::read_trickled(prefix)))
        << "prefix length " << len;
  }
}

TEST(PcapReader, ReadsFromWhereTheStreamStands) {
  // Bytes already taken from the stream are not the reader's: it starts at
  // the stream's position. A stream with nothing left is a truncated file.
  const std::string pcap = three_record_pcap();
  std::istringstream offset{"xyz" + pcap};
  offset.ignore(3);
  EXPECT_TRUE(test::same_result(PcapReader::read(offset),
                                test::read_whole(pcap)));
  std::istringstream empty;
  EXPECT_EQ(PcapReader::read(empty).error, PcapReader::Error::kTruncated);
  EXPECT_EQ(test::read_trickled("").error, PcapReader::Error::kTruncated);
}

TEST(PcapReader, FrameLargerThanTheWindowParses) {
  // A record whose incl_len (200 000 bytes) exceeds the reader's 64 KiB
  // window, between two ordinary ones: its IPv4 packet is followed by
  // padding (as on a link with trailers), so the record holds the packet's
  // header fields and the window grows to take the whole frame.
  const std::vector<Packet> packets = three_packets();
  const std::string plain = pcap_of(packets);
  const std::vector<std::size_t> ends = [&] {
    std::vector<std::size_t> e;
    for (std::size_t off = 24; off < plain.size();) {
      std::uint32_t incl = 0;
      for (int i = 3; i >= 0; --i) {
        incl = (incl << 8) | static_cast<unsigned char>(plain[off + 8 + i]);
      }
      off += 16 + incl;
      e.push_back(off);
    }
    return e;
  }();
  ASSERT_EQ(ends.size(), 3u);
  constexpr std::uint32_t kPadded = 200'000;
  const std::size_t second = ends[0];  // the UDP record's header
  std::string big = plain.substr(0, second + 8) + le32(kPadded) +
                    le32(kPadded) + plain.substr(second + 16, ends[1] - second - 16);
  big.resize(big.size() + kPadded - (ends[1] - second - 16), '\xa5');
  big += plain.substr(ends[1]);

  const auto want = test::read_whole(plain);
  ASSERT_TRUE(want.ok());
  const auto got = test::read_whole(big);
  EXPECT_TRUE(test::same_result(got, want));
  EXPECT_TRUE(test::same_result(test::read_trickled(big), want));
  EXPECT_EQ(got.records[1].payload_len, 5u);  // "probe"

  // Cut inside the padded frame: truncation, the first record kept.
  const auto cut = test::read_whole(big.substr(0, second + 16 + 100'000));
  EXPECT_EQ(cut.error, PcapReader::Error::kTruncated);
  ASSERT_EQ(cut.records.size(), 1u);
  EXPECT_EQ(cut.records[0], want.records[0]);
}

}  // namespace
}  // namespace bnm::net

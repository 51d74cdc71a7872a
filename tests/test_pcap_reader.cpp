#include <gtest/gtest.h>

#include <memory>
#include <sstream>

#include "net/capture.h"
#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
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
  EXPECT_EQ(result.records[0].packet.protocol, Protocol::kTcp);
  EXPECT_EQ(result.records[1].packet.protocol, Protocol::kUdp);
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

TEST(PcapReader, RecordsOutliveTheirSourceStream) {
  PcapReader::Result result;
  {
    auto in = std::make_unique<std::stringstream>(three_record_pcap());
    result = PcapReader::read(*in);
  }  // the stream and its buffer are gone; the records must not care
  ASSERT_TRUE(result.ok());
  const std::vector<Packet> written = three_packets();
  ASSERT_EQ(result.records.size(), written.size());
  for (std::size_t i = 0; i < written.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    const Packet& got = result.records[i].packet;
    EXPECT_EQ(got.protocol, written[i].protocol);
    EXPECT_EQ(got.src, written[i].src);
    EXPECT_EQ(got.dst, written[i].dst);
    EXPECT_EQ(got.ts, written[i].ts);
    EXPECT_EQ(got.payload, written[i].payload);
    EXPECT_EQ(got.payload.as_string(), written[i].payload.as_string());
  }
}

}  // namespace
}  // namespace bnm::net

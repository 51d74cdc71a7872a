#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <sstream>

#include "net/capture.h"
#include "net/pcap_writer.h"
#include "sim/simulation.h"

namespace bnm::net {
namespace {

Packet tcp_packet(Endpoint src, Endpoint dst, TcpFlags flags,
                  const std::string& payload = "") {
  Packet p;
  p.protocol = Protocol::kTcp;
  p.src = src;
  p.dst = dst;
  p.flags = flags;
  p.payload = to_bytes(payload);
  return p;
}

const Endpoint kClient{IpAddress{10, 0, 0, 1}, 50000};
const Endpoint kServer{IpAddress{10, 0, 0, 2}, 80};

TEST(PacketCapture, RecordsBothDirectionsWithTimestamps) {
  sim::Simulation sim{1};
  PacketCapture cap{sim};
  sim.scheduler().schedule_after(sim::Duration::millis(5), [&] {
    cap.record(CaptureDirection::kOutbound,
               tcp_packet(kClient, kServer, {.ack = true, .psh = true}, "req"));
  });
  sim.scheduler().schedule_after(sim::Duration::millis(55), [&] {
    cap.record(CaptureDirection::kInbound,
               tcp_packet(kServer, kClient, {.ack = true, .psh = true}, "resp"));
  });
  sim.scheduler().run();
  ASSERT_EQ(cap.size(), 2u);
  EXPECT_EQ(cap.direction(0), CaptureDirection::kOutbound);
  EXPECT_EQ(cap.direction(1), CaptureDirection::kInbound);
  EXPECT_EQ((cap.timestamp(1) - cap.timestamp(0)).ms_f(), 50.0);
}

TEST(PacketCapture, DisabledCaptureDropsRecords) {
  sim::Simulation sim{2};
  PacketCapture::Config cfg;
  cfg.enabled = false;
  PacketCapture cap{sim, cfg};
  cap.record(CaptureDirection::kInbound, tcp_packet(kServer, kClient, {}));
  EXPECT_EQ(cap.size(), 0u);
}

TEST(PacketCapture, TimestampJitterBoundedAndNonNegative) {
  sim::Simulation sim{3};
  PacketCapture::Config cfg;
  cfg.timestamp_jitter = sim::Duration::from_millis_f(0.3);
  PacketCapture cap{sim, cfg};
  for (int i = 0; i < 200; ++i) {
    cap.record(CaptureDirection::kOutbound, tcp_packet(kClient, kServer, {}));
  }
  for (std::size_t i = 0; i < cap.size(); ++i) {
    const auto err = cap.timestamp(i) - cap.true_time(i);
    EXPECT_GE(err, sim::Duration::zero());
    EXPECT_LT(err, sim::Duration::from_millis_f(0.3));
  }
}

TEST(PacketCapture, ClearEmpties) {
  sim::Simulation sim{6};
  PacketCapture cap{sim};
  cap.record(CaptureDirection::kOutbound, tcp_packet(kClient, kServer, {}));
  cap.clear();
  EXPECT_EQ(cap.size(), 0u);
}

// ------------------------------------------------------------------- pcap

TEST(PcapWriter, InternetChecksumKnownVector) {
  // RFC 1071 example bytes.
  const std::uint8_t data[] = {0x00, 0x01, 0xf2, 0x03, 0xf4, 0xf5, 0xf6, 0xf7};
  EXPECT_EQ(PcapWriter::internet_checksum(data, sizeof data), 0x220d);
}

TEST(PcapWriter, SynthesizedTcpFrameFields) {
  Packet p = tcp_packet(kClient, kServer, {.syn = true}, "");
  p.seq = 0x01020304;
  const std::vector<std::uint8_t> f = PcapWriter::synthesize_frame(p);
  ASSERT_EQ(f.size(), kIpHeaderBytes + kTcpHeaderBytes);
  EXPECT_EQ(static_cast<unsigned char>(f[0]), 0x45);  // IPv4, IHL 5
  EXPECT_EQ(static_cast<unsigned char>(f[9]), 6);     // protocol TCP
  // Source/destination addresses in network order.
  EXPECT_EQ(static_cast<unsigned char>(f[12]), 10);
  EXPECT_EQ(static_cast<unsigned char>(f[15]), 1);
  EXPECT_EQ(static_cast<unsigned char>(f[19]), 2);
  // TCP ports.
  EXPECT_EQ((static_cast<unsigned char>(f[20]) << 8) |
                static_cast<unsigned char>(f[21]),
            50000);
  EXPECT_EQ((static_cast<unsigned char>(f[22]) << 8) |
                static_cast<unsigned char>(f[23]),
            80);
  // Sequence number.
  EXPECT_EQ(static_cast<unsigned char>(f[24]), 0x01);
  EXPECT_EQ(static_cast<unsigned char>(f[27]), 0x04);
  // SYN flag bit.
  EXPECT_EQ(static_cast<unsigned char>(f[33]) & 0x02, 0x02);
  // IPv4 header checksum verifies to zero.
  EXPECT_EQ(PcapWriter::internet_checksum(
                reinterpret_cast<const std::uint8_t*>(f.data()),
                kIpHeaderBytes),
            0);
}

TEST(PcapWriter, SynthesizedUdpFrame) {
  Packet p;
  p.protocol = Protocol::kUdp;
  p.src = {IpAddress{10, 0, 0, 1}, 1234};
  p.dst = {IpAddress{10, 0, 0, 2}, 9001};
  p.payload = to_bytes("ping");
  const std::vector<std::uint8_t> f = PcapWriter::synthesize_frame(p);
  ASSERT_EQ(f.size(), kIpHeaderBytes + kUdpHeaderBytes + 4);
  EXPECT_EQ(static_cast<unsigned char>(f[9]), 17);  // protocol UDP
  // UDP length field = header + payload.
  EXPECT_EQ((static_cast<unsigned char>(f[24]) << 8) |
                static_cast<unsigned char>(f[25]),
            12);
  EXPECT_EQ(std::string(f.begin() + kIpHeaderBytes + kUdpHeaderBytes, f.end()),
            "ping");
}

TEST(PcapWriter, StreamLayout) {
  sim::Simulation sim{7};
  PacketCapture cap{sim};
  sim.scheduler().schedule_after(sim::Duration::millis(1), [&] {
    cap.record(CaptureDirection::kOutbound,
               tcp_packet(kClient, kServer, {.ack = true, .psh = true}, "hi"));
  });
  sim.scheduler().run();

  std::ostringstream out;
  const std::size_t written = PcapWriter::write(cap, out);
  const std::string bytes = out.str();
  EXPECT_EQ(written, bytes.size());
  // Global header: magic a1 b2 c3 d4 little-endian, version 2.4.
  ASSERT_GE(bytes.size(), 24u + 16u);
  EXPECT_EQ(static_cast<unsigned char>(bytes[0]), 0xd4);
  EXPECT_EQ(static_cast<unsigned char>(bytes[1]), 0xc3);
  EXPECT_EQ(static_cast<unsigned char>(bytes[2]), 0xb2);
  EXPECT_EQ(static_cast<unsigned char>(bytes[3]), 0xa1);
  EXPECT_EQ(static_cast<unsigned char>(bytes[4]), 2);  // version major
  EXPECT_EQ(static_cast<unsigned char>(bytes[6]), 4);  // version minor
  // Record header: ts_usec = 1000 for a 1 ms timestamp.
  const auto u32 = [&](std::size_t off) {
    return static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off])) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off + 1])) << 8) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off + 2])) << 16) |
           (static_cast<std::uint32_t>(static_cast<unsigned char>(bytes[off + 3])) << 24);
  };
  EXPECT_EQ(u32(24), 0u);     // ts_sec
  EXPECT_EQ(u32(28), 1000u);  // ts_usec
  const std::uint32_t incl_len = u32(32);
  EXPECT_EQ(incl_len, kIpHeaderBytes + kTcpHeaderBytes + 2);
  EXPECT_EQ(bytes.size(), 24u + 16u + incl_len);
}

TEST(PcapWriter, WriteFileRoundtrip) {
  sim::Simulation sim{8};
  PacketCapture cap{sim};
  cap.record(CaptureDirection::kOutbound, tcp_packet(kClient, kServer, {}));
  const std::string path = ::testing::TempDir() + "/bnm_test.pcap";
  const std::size_t written = PcapWriter::write_file(cap, path);
  std::ifstream in{path, std::ios::binary};
  ASSERT_TRUE(in.good());
  in.seekg(0, std::ios::end);
  EXPECT_EQ(static_cast<std::size_t>(in.tellg()), written);
  std::remove(path.c_str());
}

}  // namespace
}  // namespace bnm::net

#include "net/pcap_writer.h"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <stdexcept>
#include <vector>

namespace bnm::net {

namespace {

void put_u16be(std::vector<std::uint8_t>& f, std::uint16_t v) {
  f.push_back(static_cast<std::uint8_t>(v >> 8));
  f.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put_u32be(std::vector<std::uint8_t>& f, std::uint32_t v) {
  f.push_back(static_cast<std::uint8_t>(v >> 24));
  f.push_back(static_cast<std::uint8_t>((v >> 16) & 0xff));
  f.push_back(static_cast<std::uint8_t>((v >> 8) & 0xff));
  f.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put_u16le(std::ostream& out, std::uint16_t v) {
  const char b[2] = {static_cast<char>(v & 0xff), static_cast<char>(v >> 8)};
  out.write(b, 2);
}

void put_u32le(std::ostream& out, std::uint32_t v) {
  const char b[4] = {static_cast<char>(v & 0xff), static_cast<char>((v >> 8) & 0xff),
                     static_cast<char>((v >> 16) & 0xff),
                     static_cast<char>((v >> 24) & 0xff)};
  out.write(b, 4);
}

}  // namespace

std::uint16_t PcapWriter::internet_checksum(const std::uint8_t* data,
                                            std::size_t len) {
  std::uint32_t sum = 0;
  for (std::size_t i = 0; i + 1 < len; i += 2) {
    sum += (static_cast<std::uint32_t>(data[i]) << 8) | data[i + 1];
  }
  if (len % 2 == 1) sum += static_cast<std::uint32_t>(data[len - 1]) << 8;
  while (sum >> 16) sum = (sum & 0xffff) + (sum >> 16);
  return static_cast<std::uint16_t>(~sum & 0xffff);
}

std::vector<std::uint8_t> PcapWriter::synthesize_frame(const Packet& packet) {
  return synthesize_frame(packet, packet.payload.size());
}

std::vector<std::uint8_t> PcapWriter::synthesize_frame(
    const Packet& packet, std::size_t wire_payload_len) {
  std::vector<std::uint8_t> f;
  f.reserve(kIpHeaderBytes + kTcpHeaderBytes + packet.payload.size());

  const bool tcp = packet.protocol == Protocol::kTcp;
  const bool has_ts = tcp && packet.ts.present;
  const std::size_t tcp_header =
      kTcpHeaderBytes + (has_ts ? kTcpTimestampOptionBytes : 0);
  const std::size_t total =
      kIpHeaderBytes + (tcp ? tcp_header : kUdpHeaderBytes) + wire_payload_len;

  // --- IPv4 header (20 bytes, no options) ---
  f.push_back(0x45);  // version 4, IHL 5
  f.push_back(0x00);  // DSCP/ECN
  put_u16be(f, static_cast<std::uint16_t>(total));
  put_u16be(f, static_cast<std::uint16_t>(packet.id & 0xffff));  // IP ID
  put_u16be(f, 0x4000);                                          // DF
  f.push_back(64);  // TTL
  f.push_back(static_cast<std::uint8_t>(packet.protocol));
  put_u16be(f, 0);  // checksum placeholder
  put_u32be(f, packet.src.ip.raw());
  put_u32be(f, packet.dst.ip.raw());
  const std::uint16_t csum = internet_checksum(f.data(), kIpHeaderBytes);
  f[10] = static_cast<std::uint8_t>(csum >> 8);
  f[11] = static_cast<std::uint8_t>(csum & 0xff);

  if (tcp) {
    // --- TCP header (20 bytes, + 12 option bytes when timestamps ride) ---
    put_u16be(f, packet.src.port);
    put_u16be(f, packet.dst.port);
    put_u32be(f, packet.seq);
    put_u32be(f, packet.ack);
    f.push_back(static_cast<std::uint8_t>((tcp_header / 4) << 4));
    std::uint8_t flags = 0;
    if (packet.flags.fin) flags |= 0x01;
    if (packet.flags.syn) flags |= 0x02;
    if (packet.flags.rst) flags |= 0x04;
    if (packet.flags.psh) flags |= 0x08;
    if (packet.flags.ack) flags |= 0x10;
    f.push_back(flags);
    put_u16be(f, packet.window);
    put_u16be(f, 0);  // checksum (offloaded)
    put_u16be(f, 0);  // urgent pointer
    if (has_ts) {
      // RFC 7323 recommended layout: NOP, NOP, kind=8, len=10, TSval, TSecr.
      f.push_back(1);
      f.push_back(1);
      f.push_back(8);
      f.push_back(10);
      put_u32be(f, packet.ts.tsval);
      put_u32be(f, packet.ts.tsecr);
    }
  } else {
    // --- UDP header (8 bytes) ---
    put_u16be(f, packet.src.port);
    put_u16be(f, packet.dst.port);
    put_u16be(f, static_cast<std::uint16_t>(kUdpHeaderBytes + wire_payload_len));
    put_u16be(f, 0);  // checksum (optional for IPv4)
  }

  f.insert(f.end(), packet.payload.begin(), packet.payload.end());
  return f;
}

std::size_t PcapWriter::write(const PacketCapture& capture, std::ostream& out) {
  // Global header.
  put_u32le(out, 0xa1b2c3d4);  // magic, microsecond timestamps
  put_u16le(out, 2);           // version major
  put_u16le(out, 4);           // version minor
  put_u32le(out, 0);           // thiszone
  put_u32le(out, 0);           // sigfigs
  put_u32le(out, 65535);       // snaplen
  put_u32le(out, kLinkTypeRaw);
  std::size_t written = 24;

  for (std::size_t i = 0; i < capture.size(); ++i) {
    const Packet& pkt = capture.packet(i);
    // wire_payload_len only differs from the stored payload when the
    // capture snapped; hand-built records may leave it 0, so never let it
    // understate what we actually hold.
    const std::size_t wire_len =
        std::max(capture.wire_payload_len(i), pkt.payload.size());
    const std::vector<std::uint8_t> frame = synthesize_frame(pkt, wire_len);
    const std::size_t orig_len =
        frame.size() + (wire_len - pkt.payload.size());
    const std::int64_t us = capture.timestamp(i).ns_since_epoch() / 1000;
    put_u32le(out, static_cast<std::uint32_t>(us / 1'000'000));
    put_u32le(out, static_cast<std::uint32_t>(us % 1'000'000));
    put_u32le(out, static_cast<std::uint32_t>(frame.size()));
    put_u32le(out, static_cast<std::uint32_t>(orig_len));
    out.write(reinterpret_cast<const char*>(frame.data()),
              static_cast<std::streamsize>(frame.size()));
    written += 16 + frame.size();
  }
  return written;
}

std::size_t PcapWriter::write_file(const PacketCapture& capture,
                                   const std::string& path) {
  std::ofstream out{path, std::ios::binary};
  if (!out) throw std::runtime_error("cannot open pcap output: " + path);
  const std::size_t written = write(capture, out);
  // A failed or short write (disk full) must not pass as a complete file.
  if (!out.flush()) {
    throw std::runtime_error("cannot write pcap output: " + path);
  }
  return written;
}

}  // namespace bnm::net

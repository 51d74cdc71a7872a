// Hostile input for PcapReader::read: a real capture (TCP with RFC 7323
// timestamp options, plus UDP) put through a fixed-seed series of byte
// flips, incl_len rewrites, TCP option-length corruptions and truncations.
// Every read must end in ok() or one of the named errors, read the same
// through a pipe-like stream as from the whole string, and every flat
// record of an ok() read must equal the header fields parse_frame() finds
// in its frame, whose payload lies inside that frame and whose timestamp,
// if any, lies inside its own TCP options. The ASan and UBSan builds run
// this file (label `passive`), so a read past the stream buffer or a
// frame's buffer fails there even where the bytes happen to compare equal.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "net/pcap_reader.h"
#include "net/pcap_writer.h"
#include "net_fixture.h"
#include "pcap_streams.h"
#include "sim/random.h"

namespace bnm::net {
namespace {

constexpr std::size_t kFileHeader = 24;
constexpr std::size_t kRecordHeader = 16;

std::uint32_t le32_at(const std::string& b, std::size_t off) {
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) |
        static_cast<unsigned char>(b[off + static_cast<std::size_t>(i)]);
  }
  return v;
}

void put_le32(std::string& b, std::size_t off, std::uint32_t v) {
  for (std::size_t i = 0; i < 4; ++i) {
    b[off + i] = static_cast<char>((v >> (8 * i)) & 0xff);
  }
}

/// Offsets of the record headers of the complete records in `bytes`.
std::vector<std::size_t> record_offsets(const std::string& bytes) {
  std::vector<std::size_t> offs;
  if (bytes.size() < kFileHeader) return offs;
  for (std::size_t off = kFileHeader; bytes.size() - off >= kRecordHeader;) {
    const std::size_t incl = le32_at(bytes, off + 8);
    if (incl > bytes.size() - off - kRecordHeader) break;
    offs.push_back(off);
    off += kRecordHeader + incl;
  }
  return offs;
}

class PcapHostileTest : public test::TwoHostFixture {
 protected:
  /// A client-side capture of four TCP echo rounds with timestamps and
  /// three UDP datagrams each way.
  std::string capture_pcap() {
    tcp_config.timestamps = true;
    build();
    server->tcp_listen(9000, [](std::shared_ptr<TcpConnection> conn) {
      TcpCallbacks cbs;
      auto weak = std::weak_ptr<TcpConnection>(conn);
      cbs.on_data = [weak](const Payload& d) {
        if (auto c = weak.lock()) c->send(d);
      };
      conn->set_callbacks(std::move(cbs));
    });
    std::shared_ptr<TcpConnection> conn;
    TcpCallbacks cbs;
    cbs.on_connect = [&] {
      for (int i = 0; i < 4; ++i) {
        sim->scheduler().schedule_after(
            sim::Duration::millis(10 * (i + 1)),
            [&, i] { conn->send(std::string(40 + 60 * i, 'x')); });
      }
    };
    conn = client->tcp_connect(server_ep(9000), std::move(cbs));
    std::shared_ptr<UdpSocket> echo;
    echo = server->udp_open(9001, [&echo](Endpoint from, const Payload& p) {
      echo->send_to(from, p);
    });
    auto probe = client->udp_open([](Endpoint, const Payload&) {});
    for (int i = 0; i < 3; ++i) {
      probe->send_to(server_ep(9001), Payload{std::string(8 + 16 * i, 'u')});
    }
    run_all();
    std::stringstream out;
    PcapWriter::write(client->capture(), out);
    return out.str();
  }
};

TEST_F(PcapHostileTest, SeededMutationsNeverReadOutsideTheStream) {
  const std::string original = capture_pcap();
  const std::vector<std::size_t> original_records = record_offsets(original);
  {
    const auto clean = test::read_whole(original);
    ASSERT_TRUE(test::same_result(clean, test::read_trickled(original)));
    ASSERT_TRUE(clean.ok());
    ASSERT_EQ(clean.records.size(), original_records.size());
    int udp = 0, ts = 0;
    for (const PcapRecord& r : clean.records) {
      udp += r.protocol == Protocol::kUdp;
      ts += r.ts.present;
    }
    ASSERT_GE(udp, 6);
    ASSERT_GE(ts, 10);
  }

  sim::Rng rng{0x5eed'9ca9};
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(
        rng.uniform_int(0, static_cast<std::int64_t>(n) - 1));
  };
  int ok_reads = 0, error_reads = 0;
  for (int round = 0; round < 1500; ++round) {
    std::string bytes = original;
    const int mutations = 1 + static_cast<int>(pick(3));
    for (int m = 0; m < mutations; ++m) {
      const std::size_t rec =
          original_records[pick(original_records.size())];
      const auto inside = [&bytes](std::size_t end) {
        return end <= bytes.size();
      };
      switch (pick(4)) {
        case 0:  // flip one to four bytes anywhere
          for (std::size_t k = 1 + pick(4); k > 0; --k) {
            bytes[pick(bytes.size())] ^=
                static_cast<char>(1u << pick(8));
          }
          break;
        case 1: {  // rewrite a record's incl_len: near its size, or wild
          if (!inside(rec + kRecordHeader)) break;
          const std::uint32_t incl = le32_at(bytes, rec + 8);
          put_le32(bytes, rec + 8,
                   rng.chance(0.5)
                       ? static_cast<std::uint32_t>(
                             rng.uniform_int(0, std::int64_t{incl} + 64))
                       : static_cast<std::uint32_t>(rng.next_u64()));
          break;
        }
        case 2: {  // corrupt a TCP header's option lengths or data offset
          const std::size_t ip = rec + kRecordHeader;
          if (!inside(ip + 20) || bytes[ip + 9] != 6) break;
          const std::size_t tcp =
              ip + static_cast<std::size_t>(bytes[ip] & 0x0f) * 4;
          if (!inside(tcp + 20)) break;
          const std::size_t doff =
              static_cast<std::size_t>(
                  static_cast<unsigned char>(bytes[tcp + 12]) >> 4) * 4;
          if (doff > 20 && inside(tcp + doff) && rng.chance(0.8)) {
            // The length byte of an option slot (or a kind byte).
            bytes[tcp + 20 + pick(doff - 20)] =
                static_cast<char>(rng.uniform_int(0, 255));
          } else {
            bytes[tcp + 12] = static_cast<char>(
                (rng.uniform_int(0, 15) << 4) | (bytes[tcp + 12] & 0x0f));
          }
          break;
        }
        default:  // truncate
          bytes.resize(pick(bytes.size() + 1));
          break;
      }
    }

    const auto result = test::read_whole(bytes);
    // A pipe that delivers a few bytes at a time and never tells how many
    // are left reads the same.
    ASSERT_TRUE(test::same_result(result, test::read_trickled(bytes)))
        << "round " << round;
    ASSERT_GE(static_cast<int>(result.error),
              static_cast<int>(PcapReader::Error::kNone));
    ASSERT_LE(static_cast<int>(result.error),
              static_cast<int>(PcapReader::Error::kBadIpHeader));
    if (!result.ok()) {
      ++error_reads;
      continue;
    }
    ++ok_reads;
    // Every complete record was read, and parse_frame() over each frame
    // agrees with its record and yields a payload that is the tail of the
    // frame's own transport segment, byte for byte.
    const std::vector<std::size_t> offs = record_offsets(bytes);
    ASSERT_EQ(result.records.size(), offs.size()) << "round " << round;
    for (std::size_t i = 0; i < offs.size(); ++i) {
      const std::size_t frame = offs[i] + kRecordHeader;
      const std::size_t incl = le32_at(bytes, offs[i] + 8);
      const auto* f = reinterpret_cast<const unsigned char*>(bytes.data()) +
                      frame;
      const std::size_t ihl = static_cast<std::size_t>(f[0] & 0x0f) * 4;
      const std::size_t start =
          f[9] == 6 ? ihl + static_cast<std::size_t>(f[ihl + 12] >> 4) * 4
                    : ihl + 8;
      const PcapRecord& rec = result.records[i];
      const auto parsed = PcapReader::parse_frame(
          Payload{bytes.substr(frame, incl)});
      ASSERT_TRUE(parsed.has_value()) << "round " << round << " record " << i;
      const Packet& pkt = *parsed;
      const Payload& p = pkt.payload;
      ASSERT_EQ(rec, PcapRecord::of(pkt, rec.timestamp))
          << "round " << round << " record " << i;
      ASSERT_LE(start + p.size(), incl) << "round " << round;
      ASSERT_EQ(std::memcmp(p.data(), f + start, p.size()), 0)
          << "round " << round << " record " << i;
      if (pkt.ts.present) {
        // The timestamp option it reports lies whole inside the options.
        const unsigned char want[10] = {
            8, 10,
            static_cast<unsigned char>(pkt.ts.tsval >> 24),
            static_cast<unsigned char>(pkt.ts.tsval >> 16),
            static_cast<unsigned char>(pkt.ts.tsval >> 8),
            static_cast<unsigned char>(pkt.ts.tsval),
            static_cast<unsigned char>(pkt.ts.tsecr >> 24),
            static_cast<unsigned char>(pkt.ts.tsecr >> 16),
            static_cast<unsigned char>(pkt.ts.tsecr >> 8),
            static_cast<unsigned char>(pkt.ts.tsecr)};
        const unsigned char* opts_end = f + start;
        ASSERT_NE(std::search(f + ihl + 20, opts_end, want, want + 10),
                  opts_end)
            << "round " << round << " record " << i;
      }
    }
  }
  std::printf("hostile pcap: %d ok reads, %d error reads\n", ok_reads,
              error_reads);
  // The series exercises both outcomes.
  EXPECT_GT(ok_reads, 100);
  EXPECT_GT(error_reads, 100);
}

}  // namespace
}  // namespace bnm::net

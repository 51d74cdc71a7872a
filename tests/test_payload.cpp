// Payload / PayloadBuffer semantics: refcounted aliasing, copy-on-write
// mutation isolation, zero-copy delivery through TCP reassembly, and the
// capture tap's shared payload views.
#include <gtest/gtest.h>

#include <cstring>
#include <string>
#include <vector>

#include "net/capture.h"
#include "net/packet.h"
#include "net/payload.h"
#include "net_fixture.h"

namespace bnm::net {
namespace {

using test::TwoHostFixture;

std::vector<std::uint8_t> bytes_of(const std::string& s) {
  return {s.begin(), s.end()};
}

TEST(PayloadTest, CopyAliasesTheSameBuffer) {
  Payload a{bytes_of("shared bytes")};
  Payload b = a;
  Payload c;
  c = b;
  EXPECT_TRUE(a.shares_buffer_with(b));
  EXPECT_TRUE(a.shares_buffer_with(c));
  EXPECT_EQ(a.buffer_use_count(), 3);
  EXPECT_EQ(a, b);
  EXPECT_EQ(to_string(c), "shared bytes");
}

TEST(PayloadTest, SubviewsAliasWithoutCopying) {
  const auto deep_before = PayloadStats::deep_copy_bytes();
  Payload whole{bytes_of("0123456789")};
  Payload mid = whole.subview(2, 5);
  Payload head = whole.first(3);
  Payload tail = whole.skip(7);
  EXPECT_EQ(to_string(mid), "23456");
  EXPECT_EQ(to_string(head), "012");
  EXPECT_EQ(to_string(tail), "789");
  EXPECT_TRUE(mid.shares_buffer_with(whole));
  EXPECT_TRUE(head.shares_buffer_with(tail));
  // to_string() materializes (5 + 3 + 3 bytes); the views themselves
  // copied nothing else.
  EXPECT_EQ(PayloadStats::deep_copy_bytes() - deep_before, 11u);
}

TEST(PayloadTest, MutationIsIsolatedFromOtherHolders) {
  Payload original{bytes_of("immutable?")};
  Payload copy = original;
  ASSERT_TRUE(copy.shares_buffer_with(original));

  // COW: writing through the copy clones the buffer first.
  std::uint8_t* w = copy.mutable_bytes();
  std::memcpy(w, "MUTATED!!!", copy.size());
  EXPECT_EQ(to_string(copy), "MUTATED!!!");
  EXPECT_EQ(to_string(original), "immutable?");
  EXPECT_FALSE(copy.shares_buffer_with(original));
}

TEST(PayloadTest, MutatingASubviewLeavesTheParentIntact) {
  Payload whole{bytes_of("abcdef")};
  Payload mid = whole.subview(1, 3);
  mid.mutable_bytes()[0] = 'X';
  EXPECT_EQ(to_string(mid), "Xcd");
  EXPECT_EQ(to_string(whole), "abcdef");
}

TEST(PayloadTest, UniquelyOwnedFullViewMutatesInPlace) {
  Payload only{bytes_of("unique")};
  const auto deep_before = PayloadStats::deep_copy_bytes();
  only.mutable_bytes()[0] = 'U';
  EXPECT_EQ(to_string(only) , "Unique");
  // No other holder: no clone was needed (to_string's copy is counted, so
  // compare against exactly that).
  EXPECT_EQ(PayloadStats::deep_copy_bytes() - deep_before, only.size());
}

TEST(PayloadTest, RemovePrefixTrimsTheViewInPlace) {
  Payload p{bytes_of("headbody")};
  Payload alias = p;
  p.remove_prefix(4);
  EXPECT_EQ(to_string(p), "body");
  EXPECT_EQ(to_string(alias), "headbody");  // other views are untouched
  p.remove_prefix(100);
  EXPECT_TRUE(p.empty());
}

TEST(PayloadTest, GatherConcatenatesViews) {
  const Payload parts[] = {Payload{bytes_of("aa")}, Payload{bytes_of("bbb")},
                           Payload{bytes_of("cc")}};
  const Payload all = gather(parts, 3, 0, 7);
  EXPECT_EQ(to_string(all), "aabbbcc");
  const Payload middle = gather(parts, 3, 1, 4);
  EXPECT_EQ(to_string(middle), "abbb");
}

class PayloadTcpTest : public TwoHostFixture {};

// Delivery through segmentation + reassembly is zero-copy end to end: the
// bytes the server's application sees live in the same buffer the client
// adopted in send() — every hop (link, switch, capture, reassembly) held a
// view, never a copy.
TEST_F(PayloadTcpTest, ReassemblyDeliversViewsOfTheSendersBuffer) {
  std::vector<Payload> delivered;
  server->tcp_listen(9000, [&](std::shared_ptr<TcpConnection> conn) {
    TcpCallbacks cbs;
    cbs.on_data = [&](const Payload& d) { delivered.push_back(d); };
    conn->set_callbacks(std::move(cbs));
  });

  TcpCallbacks cbs;
  std::shared_ptr<TcpConnection> conn;
  const std::size_t total = 4000;  // > 2 x MSS: forces segmentation
  Payload sent{std::vector<std::uint8_t>(total, 0x5a)};
  cbs.on_connect = [&] { conn->send(sent); };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();

  ASSERT_GE(delivered.size(), 2u) << "expected multiple MSS-sized segments";
  std::size_t got = 0;
  for (const auto& d : delivered) {
    EXPECT_TRUE(d.shares_buffer_with(sent))
        << "delivered segment is a deep copy, not a view";
    got += d.size();
  }
  EXPECT_EQ(got, total);
}

// A held delivery view stays valid and unchanged after the sender's side
// mutates its own handle — COW isolation across the whole stack.
TEST_F(PayloadTcpTest, HeldDeliveryViewSurvivesSenderMutation) {
  std::vector<Payload> delivered;
  server->tcp_listen(9000, [&](std::shared_ptr<TcpConnection> conn) {
    TcpCallbacks cbs;
    cbs.on_data = [&](const Payload& d) { delivered.push_back(d); };
    conn->set_callbacks(std::move(cbs));
  });

  TcpCallbacks cbs;
  std::shared_ptr<TcpConnection> conn;
  Payload sent{bytes_of("do not change delivered bytes")};
  cbs.on_connect = [&] { conn->send(sent); };
  conn = client->tcp_connect(server_ep(9000), std::move(cbs));
  run_all();

  ASSERT_FALSE(delivered.empty());
  std::memset(sent.mutable_bytes(), 'X', sent.size());
  EXPECT_EQ(to_string(delivered.front()), "do not change delivered bytes");
}

class SnapLenTest : public TwoHostFixture {};

TEST_F(SnapLenTest, DefaultCaptureSharesPayloadBuffers) {
  std::shared_ptr<UdpSocket> srv =
      server->udp_open(9001, [](Endpoint, const Payload&) {});
  auto cli = client->udp_open([](Endpoint, const Payload&) {});
  Payload probe{bytes_of("snapless probe")};
  cli->send_to(server_ep(9001), probe);
  run_all();

  const PacketCapture& cap = client->capture();
  std::vector<const Packet*> outs;
  for (std::size_t i = 0; i < cap.size(); ++i) {
    if (cap.direction(i) == CaptureDirection::kOutbound &&
        cap.packet(i).carries_data()) {
      outs.push_back(&cap.packet(i));
    }
  }
  ASSERT_EQ(outs.size(), 1u);
  EXPECT_EQ(outs.front()->payload.size(), 14u);
  EXPECT_TRUE(outs.front()->payload.shares_buffer_with(probe));
}

}  // namespace
}  // namespace bnm::net

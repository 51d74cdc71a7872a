#include <gtest/gtest.h>

#include "net_fixture.h"
#include "http/client.h"
#include "ws/base64.h"
#include "ws/endpoint.h"
#include "ws/frame.h"
#include "ws/sha1.h"

namespace bnm::ws {
namespace {

// ------------------------------------------------------------------- sha1

TEST(Sha1, Fips180Vectors) {
  EXPECT_EQ(sha1_hex("abc"), "a9993e364706816aba3e25717850c26c9cd0d89d");
  EXPECT_EQ(sha1_hex(""), "da39a3ee5e6b4b0d3255bfef95601890afd80709");
  EXPECT_EQ(sha1_hex("abcdbcdecdefdefgefghfghighijhijkijkljklmklmnlmnomnopnopq"),
            "84983e441c3bd26ebaae4aa1f95129e5e54670f1");
}

TEST(Sha1, LongInputMillionAs) {
  EXPECT_EQ(sha1_hex(std::string(1000000, 'a')),
            "34aa973cd4c4daa4f61eeb2bdbad27316534016f");
}

TEST(Sha1, BlockBoundaryLengths) {
  // 55/56/64 bytes straddle the padding boundary.
  EXPECT_EQ(sha1(std::string(55, 'x')).size(), 20u);
  EXPECT_NE(sha1_hex(std::string(55, 'x')), sha1_hex(std::string(56, 'x')));
  EXPECT_NE(sha1_hex(std::string(63, 'x')), sha1_hex(std::string(64, 'x')));
}

// ----------------------------------------------------------------- base64

TEST(Base64, Rfc4648Vectors) {
  EXPECT_EQ(base64_encode(""), "");
  EXPECT_EQ(base64_encode("f"), "Zg==");
  EXPECT_EQ(base64_encode("fo"), "Zm8=");
  EXPECT_EQ(base64_encode("foo"), "Zm9v");
  EXPECT_EQ(base64_encode("foob"), "Zm9vYg==");
  EXPECT_EQ(base64_encode("fooba"), "Zm9vYmE=");
  EXPECT_EQ(base64_encode("foobar"), "Zm9vYmFy");
}

TEST(Base64, DecodeVectors) {
  const auto d = base64_decode("Zm9vYmFy");
  ASSERT_TRUE(d.has_value());
  EXPECT_EQ(net::to_string(*d), "foobar");
  EXPECT_EQ(net::to_string(*base64_decode("Zg==")), "f");
}

TEST(Base64, DecodeRejectsMalformed) {
  EXPECT_FALSE(base64_decode("a").has_value());        // bad length
  EXPECT_FALSE(base64_decode("ab=c").has_value());     // data after pad
  EXPECT_FALSE(base64_decode("a!!=").has_value());     // bad character
  EXPECT_FALSE(base64_decode("=aaa").has_value());     // pad up front
}

class Base64RoundTrip : public ::testing::TestWithParam<int> {};

TEST_P(Base64RoundTrip, EncodeDecodeIdentity) {
  sim::Rng rng{static_cast<std::uint64_t>(GetParam())};
  std::vector<std::uint8_t> data;
  const int len = GetParam() * 7 % 100;
  for (int i = 0; i < len; ++i) {
    data.push_back(static_cast<std::uint8_t>(rng.next_u64()));
  }
  const auto decoded = base64_decode(base64_encode(data));
  ASSERT_TRUE(decoded.has_value());
  EXPECT_EQ(*decoded, data);
}

INSTANTIATE_TEST_SUITE_P(Lengths, Base64RoundTrip, ::testing::Range(1, 20));

// -------------------------------------------------------------- handshake

TEST(Handshake, Rfc6455ExampleAcceptKey) {
  // The key/accept pair from RFC 6455 section 1.3.
  EXPECT_EQ(accept_key_for("dGhlIHNhbXBsZSBub25jZQ=="),
            "s3pPLMBiTxaQ9kYGzzhZRbK+xOo=");
}

// ------------------------------------------------------------------ frame

TEST(Frame, EncodeSmallUnmasked) {
  Frame f;
  f.opcode = Opcode::kText;
  f.payload = net::to_bytes("hi");
  const std::string wire = f.encode();
  ASSERT_EQ(wire.size(), 4u);
  EXPECT_EQ(static_cast<unsigned char>(wire[0]), 0x81);  // FIN | text
  EXPECT_EQ(static_cast<unsigned char>(wire[1]), 0x02);  // unmasked, len 2
  EXPECT_EQ(wire.substr(2), "hi");
}

TEST(Frame, MaskedPayloadIsXoredOnWire) {
  Frame f;
  f.opcode = Opcode::kBinary;
  f.masked = true;
  f.masking_key = 0x11223344;
  f.payload = net::to_bytes("AAAA");
  const std::string wire = f.encode();
  ASSERT_EQ(wire.size(), 2u + 4u + 4u);
  EXPECT_EQ(static_cast<unsigned char>(wire[1]) & 0x80, 0x80);
  EXPECT_EQ(static_cast<unsigned char>(wire[6]), 'A' ^ 0x11);
  EXPECT_EQ(static_cast<unsigned char>(wire[7]), 'A' ^ 0x22);
}

class FrameSizes : public ::testing::TestWithParam<std::size_t> {};

TEST_P(FrameSizes, RoundTripAllLengthEncodings) {
  Frame f;
  f.opcode = Opcode::kBinary;
  f.masked = true;
  f.masking_key = 0xCAFEBABE;
  sim::Rng rng{GetParam()};
  for (std::size_t i = 0; i < GetParam(); ++i) {
    f.payload.push_back(static_cast<std::uint8_t>(rng.next_u64()));
  }
  FrameDecoder dec;
  dec.feed(f.encode());
  const auto out = dec.take();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->opcode, Opcode::kBinary);
  EXPECT_TRUE(out->fin);
  EXPECT_TRUE(out->masked);
  EXPECT_EQ(out->payload, f.payload);  // decoder unmasks
}

// 125/126/65535/65536 cross the 7-bit/16-bit/64-bit length encodings.
INSTANTIATE_TEST_SUITE_P(Lengths, FrameSizes,
                         ::testing::Values(0, 1, 125, 126, 127, 1000, 65535,
                                           65536, 100000));

TEST(FrameDecoder, IncrementalFeed) {
  Frame f;
  f.opcode = Opcode::kText;
  f.payload = net::to_bytes("fragmented arrival");
  const std::string wire = f.encode();
  FrameDecoder dec;
  for (char c : wire) {
    dec.feed(std::string(1, c));
  }
  const auto out = dec.take();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(net::to_string(out->payload), "fragmented arrival");
}

TEST(FrameDecoder, MultipleFramesOneBuffer) {
  Frame a, b;
  a.opcode = Opcode::kText;
  a.payload = net::to_bytes("one");
  b.opcode = Opcode::kText;
  b.payload = net::to_bytes("two");
  FrameDecoder dec;
  dec.feed(a.encode() + b.encode());
  EXPECT_EQ(net::to_string(dec.take()->payload), "one");
  EXPECT_EQ(net::to_string(dec.take()->payload), "two");
  EXPECT_FALSE(dec.take().has_value());
}

TEST(FrameDecoder, ReservedBitsRejected) {
  std::string wire(2, '\0');
  wire[0] = static_cast<char>(0xC1);  // RSV1 set
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_TRUE(dec.failed());
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kReservedBits);
}

TEST(FrameDecoder, BadOpcodeRejected) {
  std::string wire(2, '\0');
  wire[0] = static_cast<char>(0x83);  // opcode 3 is reserved
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_TRUE(dec.failed());
}

TEST(FrameDecoder, OversizedControlRejected) {
  // Ping with 126-byte payload is illegal.
  std::string wire;
  wire.push_back(static_cast<char>(0x89));
  wire.push_back(static_cast<char>(126));
  wire.push_back(0);
  wire.push_back(126);
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_TRUE(dec.failed());
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kControlTooLong);
}

TEST(FrameDecoder, FragmentedControlRejected) {
  std::string wire;
  wire.push_back(static_cast<char>(0x09));  // ping without FIN
  wire.push_back(0);
  FrameDecoder dec;
  dec.feed(wire);
  EXPECT_TRUE(dec.failed());
  EXPECT_EQ(dec.error(), FrameDecoder::Error::kControlFragmented);
}

TEST(MessageAssemblerTest, Fragmentation) {
  MessageAssembler asmb;
  Frame first;
  first.fin = false;
  first.opcode = Opcode::kText;
  first.payload = net::to_bytes("hel");
  EXPECT_FALSE(asmb.add(first).has_value());
  Frame cont;
  cont.fin = true;
  cont.opcode = Opcode::kContinuation;
  cont.payload = net::to_bytes("lo");
  const auto msg = asmb.add(cont);
  ASSERT_TRUE(msg.has_value());
  EXPECT_EQ(msg->type, Opcode::kText);
  EXPECT_EQ(net::to_string(msg->data), "hello");
}

TEST(ClosePayload, RoundTrip) {
  const auto p = encode_close_payload(1000, "bye");
  EXPECT_EQ(decode_close_code(p), 1000);
  EXPECT_FALSE(decode_close_code({}).has_value());
}

// ------------------------------------------------------------ integration

using test::TwoHostFixture;

class WsIntegration : public TwoHostFixture {
 protected:
  void SetUp() override {
    build();
    ws_server = std::make_unique<WebSocketServer>(
        *server, 8088, [this](std::shared_ptr<WebSocketConnection> conn) {
          server_conn = conn;
          WebSocketConnection::Callbacks cbs;
          auto weak = std::weak_ptr<WebSocketConnection>(conn);
          cbs.on_message = [weak](const MessageAssembler::Message& msg) {
            if (auto c = weak.lock()) c->send_binary(msg.data);
          };
          conn->set_callbacks(std::move(cbs));
        });
    ws_client = std::make_unique<WebSocketClient>(*client);
  }

  std::unique_ptr<WebSocketServer> ws_server;
  std::unique_ptr<WebSocketClient> ws_client;
  std::shared_ptr<WebSocketConnection> server_conn;
};

TEST_F(WsIntegration, UpgradeCompletesAndEchoWorks) {
  std::shared_ptr<WebSocketConnection> conn;
  std::string got;
  ws_client->connect(server_ep(8088), "/ws",
                     [&](std::shared_ptr<WebSocketConnection> c) {
                       conn = std::move(c);
                       WebSocketConnection::Callbacks cbs;
                       cbs.on_message =
                           [&](const MessageAssembler::Message& msg) {
                             got = net::to_string(msg.data);
                           };
                       conn->set_callbacks(std::move(cbs));
                       conn->send_binary(net::to_bytes("probe!"));
                     });
  run_all();
  ASSERT_TRUE(conn != nullptr);
  EXPECT_EQ(got, "probe!");
  EXPECT_EQ(ws_server->upgrades_completed(), 1u);
  EXPECT_EQ(conn->messages_sent(), 1u);
  EXPECT_EQ(conn->messages_received(), 1u);
}

TEST_F(WsIntegration, ClientFramesAreMaskedServerFramesNot) {
  std::shared_ptr<WebSocketConnection> conn;
  ws_client->connect(server_ep(8088), "/ws",
                     [&](std::shared_ptr<WebSocketConnection> c) {
                       conn = std::move(c);
                       conn->send_binary(net::to_bytes("x"));
                     });
  run_all();
  // Inspect raw captured TCP payloads after the upgrade response.
  bool saw_masked_client_frame = false;
  bool saw_unmasked_server_frame = false;
  for (std::size_t i = 0; i < client->capture().size(); ++i) {
    const auto dir = client->capture().direction(i);
    const auto& pl = client->capture().packet(i).payload;
    if (pl.empty() || pl[0] != 0x82) continue;  // FIN|binary frames only
    if (dir == net::CaptureDirection::kOutbound && (pl[1] & 0x80)) {
      saw_masked_client_frame = true;
    }
    if (dir == net::CaptureDirection::kInbound && !(pl[1] & 0x80)) {
      saw_unmasked_server_frame = true;
    }
  }
  EXPECT_TRUE(saw_masked_client_frame);
  EXPECT_TRUE(saw_unmasked_server_frame);
}

TEST_F(WsIntegration, PingGetsPong) {
  std::shared_ptr<WebSocketConnection> conn;
  std::vector<std::uint8_t> pong;
  ws_client->connect(server_ep(8088), "/ws",
                     [&](std::shared_ptr<WebSocketConnection> c) {
                       conn = std::move(c);
                       WebSocketConnection::Callbacks cbs;
                       cbs.on_pong = [&](const std::vector<std::uint8_t>& p) {
                         pong = p;
                       };
                       conn->set_callbacks(std::move(cbs));
                       conn->ping(net::to_bytes("tick"));
                     });
  run_all();
  EXPECT_EQ(net::to_string(pong), "tick");
}

TEST_F(WsIntegration, CloseHandshakeBothSides) {
  std::shared_ptr<WebSocketConnection> conn;
  std::optional<std::uint16_t> server_code;
  ws_client->connect(server_ep(8088), "/ws",
                     [&](std::shared_ptr<WebSocketConnection> c) {
                       conn = std::move(c);
                     });
  run_all();
  ASSERT_TRUE(conn && server_conn);
  WebSocketConnection::Callbacks scbs;
  scbs.on_close = [&](std::uint16_t code) { server_code = code; };
  server_conn->set_callbacks(std::move(scbs));
  conn->close(1000, "done");
  run_all();
  EXPECT_FALSE(conn->open());
  EXPECT_EQ(server_code, 1000);
  EXPECT_EQ(client->open_connections(), 0u);
  EXPECT_EQ(server->open_connections(), 0u);
}

TEST_F(WsIntegration, NonWebSocketRequestRejected) {
  http::HttpClient plain{*client};
  http::HttpRequest req;
  req.method = "GET";
  req.target = "/ws";
  std::optional<int> status;
  plain.request(server_ep(8088), req,
                [&](http::HttpResponse r, http::HttpClient::TransferInfo) {
                  status = r.status;
                });
  run_all();
  EXPECT_EQ(status, 400);
}

TEST_F(WsIntegration, FragmentedSendReassemblesAtReceiver) {
  std::shared_ptr<WebSocketConnection> conn;
  std::string got;
  std::vector<std::uint8_t> big(10000);
  for (std::size_t i = 0; i < big.size(); ++i) {
    big[i] = static_cast<std::uint8_t>(i * 7);
  }
  ws_client->connect(server_ep(8088), "/ws",
                     [&](std::shared_ptr<WebSocketConnection> c) {
                       conn = std::move(c);
                       conn->set_max_frame_payload(1000);
                       WebSocketConnection::Callbacks cbs;
                       cbs.on_message =
                           [&](const MessageAssembler::Message& msg) {
                             got = net::to_string(msg.data);
                           };
                       conn->set_callbacks(std::move(cbs));
                       conn->send_binary(big);
                     });
  run_all();
  EXPECT_EQ(got, net::to_string(big));
  // Still one logical message despite the 10 frames.
  EXPECT_EQ(conn->messages_sent(), 1u);
}

TEST_F(WsIntegration, FragmentedFramesVisibleOnTheWire) {
  std::shared_ptr<WebSocketConnection> conn;
  ws_client->connect(server_ep(8088), "/ws",
                     [&](std::shared_ptr<WebSocketConnection> c) {
                       conn = std::move(c);
                       conn->set_max_frame_payload(100);
                       conn->send_binary(std::vector<std::uint8_t>(250, 1));
                     });
  run_all();
  // Expect a non-FIN binary frame (0x02) and a FIN continuation (0x80) in
  // the outbound TCP payloads.
  bool saw_nonfin_binary = false, saw_fin_continuation = false;
  for (std::size_t i = 0; i < client->capture().size(); ++i) {
    if (client->capture().direction(i) != net::CaptureDirection::kOutbound) {
      continue;
    }
    const auto& pl = client->capture().packet(i).payload;
    if (pl.empty()) continue;
    if (pl[0] == 0x02) saw_nonfin_binary = true;     // binary, no FIN
    if (pl[0] == 0x80) saw_fin_continuation = true;  // FIN | continuation
  }
  EXPECT_TRUE(saw_nonfin_binary);
  EXPECT_TRUE(saw_fin_continuation);
}

TEST_F(WsIntegration, TextMessageEchoPreservesType) {
  std::shared_ptr<WebSocketConnection> conn;
  std::optional<Opcode> type;
  ws_client->connect(server_ep(8088), "/ws",
                     [&](std::shared_ptr<WebSocketConnection> c) {
                       conn = std::move(c);
                       WebSocketConnection::Callbacks cbs;
                       cbs.on_message =
                           [&](const MessageAssembler::Message& msg) {
                             type = msg.type;
                           };
                       conn->set_callbacks(std::move(cbs));
                       conn->send_text("typed");
                     });
  run_all();
  // Echo server replies binary for binary, text for... our echo replies
  // with the same type it received.
  ASSERT_TRUE(type.has_value());
}

}  // namespace
}  // namespace bnm::ws

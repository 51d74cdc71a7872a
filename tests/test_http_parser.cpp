#include <string>

#include <gtest/gtest.h>

#include "http/parser.h"

namespace bnm::http {
namespace {

TEST(RequestParser, SimpleGet) {
  RequestParser p;
  p.feed("GET /echo?x=1 HTTP/1.1\r\nHost: h\r\n\r\n");
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->method, "GET");
  EXPECT_EQ(req->target, "/echo?x=1");
  EXPECT_EQ(req->version, "HTTP/1.1");
  EXPECT_EQ(req->headers.get("host"), "h");
  EXPECT_TRUE(req->body.empty());
}

TEST(RequestParser, PostWithContentLength) {
  RequestParser p;
  p.feed("POST /sink HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello");
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "hello");
}

TEST(RequestParser, IncompleteBodyWaits) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nContent-Length: 5\r\n\r\nhel");
  EXPECT_FALSE(p.take().has_value());
  p.feed("lo");
  EXPECT_TRUE(p.take().has_value());
}

TEST(RequestParser, ByteAtATime) {
  const std::string wire =
      "POST /a HTTP/1.1\r\nContent-Length: 3\r\nX-Y: z\r\n\r\nabc";
  RequestParser p;
  for (char c : wire) {
    EXPECT_FALSE(p.failed());
    p.feed(std::string(1, c));
  }
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "abc");
  EXPECT_EQ(req->headers.get("x-y"), "z");
}

TEST(RequestParser, PipelinedRequests) {
  RequestParser p;
  p.feed("GET /a HTTP/1.1\r\n\r\nGET /b HTTP/1.1\r\n\r\n");
  const auto r1 = p.take();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->target, "/a");
  const auto r2 = p.take();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->target, "/b");
  EXPECT_FALSE(p.take().has_value());
}

TEST(RequestParser, ToleratesLeadingBlankLines) {
  RequestParser p;
  p.feed("\r\n\r\nGET / HTTP/1.1\r\n\r\n");
  EXPECT_TRUE(p.take().has_value());
}

TEST(RequestParser, HeaderWhitespaceTrimmed) {
  RequestParser p;
  p.feed("GET / HTTP/1.1\r\nName:   padded value  \r\n\r\n");
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->headers.get("name"), "padded value");
}

TEST(RequestParser, BadStartLineFails) {
  RequestParser p;
  p.feed("NONSENSE\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::kBadStartLine);
  EXPECT_FALSE(p.take().has_value());
}

TEST(RequestParser, NonHttpVersionFails) {
  RequestParser p;
  p.feed("GET / SPDY/3\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(RequestParser, BadHeaderFails) {
  RequestParser p;
  p.feed("GET / HTTP/1.1\r\nno-colon-here\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::kBadHeader);
}

TEST(RequestParser, BodyLimitEnforced) {
  RequestParser p;
  p.set_body_limit(10);
  p.feed("POST / HTTP/1.1\r\nContent-Length: 11\r\n\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::kBodyTooLarge);
}

// Content-Length framing (RFC 9112 §6.3): the value is 1*DIGIT, and
// repeated fields must agree. Anything else is a bad header, never a guess.
ParseError framing_error(const std::string& content_length_lines) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\n" + content_length_lines + "\r\nhello");
  EXPECT_TRUE(p.failed()) << content_length_lines;
  EXPECT_FALSE(p.take().has_value());
  return p.error();
}

TEST(RequestParser, ContentLengthEmptyRejected) {
  EXPECT_EQ(framing_error("Content-Length: \r\n"), ParseError::kBadHeader);
}

TEST(RequestParser, ContentLengthNonDigitsRejected) {
  EXPECT_EQ(framing_error("Content-Length: abc\r\n"), ParseError::kBadHeader);
}

TEST(RequestParser, ContentLengthTrailingGarbageRejected) {
  EXPECT_EQ(framing_error("Content-Length: 5x\r\n"), ParseError::kBadHeader);
}

TEST(RequestParser, ContentLengthSignsRejected) {
  EXPECT_EQ(framing_error("Content-Length: -1\r\n"), ParseError::kBadHeader);
  EXPECT_EQ(framing_error("Content-Length: +5\r\n"), ParseError::kBadHeader);
}

TEST(RequestParser, ContentLengthInnerBlankRejected) {
  EXPECT_EQ(framing_error("Content-Length: 1 2\r\n"), ParseError::kBadHeader);
}

TEST(RequestParser, ContentLengthOverflowRejected) {
  // 2^64 does not fit; 2^64 - 1 does (and is then merely too large).
  EXPECT_EQ(framing_error("Content-Length: 18446744073709551616\r\n"),
            ParseError::kBadHeader);
  EXPECT_EQ(framing_error("Content-Length: 18446744073709551615\r\n"),
            ParseError::kBodyTooLarge);
}

TEST(RequestParser, ConflictingContentLengthsRejected) {
  EXPECT_EQ(framing_error("Content-Length: 5\r\ncontent-length: 6\r\n"),
            ParseError::kBadHeader);
}

TEST(RequestParser, AgreeingContentLengthsAccepted) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n"
         "\r\nhello");
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "hello");
}

TEST(ResponseParser, BadContentLengthRejected) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\nContent-Length: 4x\r\n\r\npong");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::kBadHeader);
  EXPECT_FALSE(p.take().has_value());
}

TEST(RequestParser, ChunkedBody) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         "3\r\nabc\r\n4\r\ndefg\r\n0\r\n\r\n");
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "abcdefg");
}

TEST(RequestParser, ChunkedByteAtATime) {
  const std::string wire =
      "POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
      "5\r\nhello\r\n0\r\n\r\n";
  RequestParser p;
  for (char c : wire) p.feed(std::string(1, c));
  const auto req = p.take();
  ASSERT_TRUE(req.has_value());
  EXPECT_EQ(req->body, "hello");
}

TEST(RequestParser, BadChunkSizeFails) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\nzz\r\n");
  EXPECT_TRUE(p.failed());
  EXPECT_EQ(p.error(), ParseError::kBadChunk);
}

TEST(RequestParser, ChunkMissingCrlfFails) {
  RequestParser p;
  p.feed("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n"
         "3\r\nabcXX");
  EXPECT_TRUE(p.failed());
}

TEST(ResponseParser, SimpleResponse) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\nContent-Length: 4\r\n\r\npong");
  const auto resp = p.take();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->status, 200);
  EXPECT_EQ(resp->reason, "OK");
  EXPECT_EQ(resp->body, "pong");
}

TEST(ResponseParser, MultiWordReason) {
  ResponseParser p;
  p.feed("HTTP/1.1 404 Not Found\r\nContent-Length: 0\r\n\r\n");
  const auto resp = p.take();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->reason, "Not Found");
}

TEST(ResponseParser, CloseDelimitedBody) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\n\r\npartial body");
  EXPECT_FALSE(p.take().has_value());  // no framing: wait for FIN
  p.feed(" more");
  p.on_connection_closed();
  const auto resp = p.take();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "partial body more");
}

TEST(ResponseParser, ZeroLengthBodyCompletesImmediately) {
  ResponseParser p;
  p.feed("HTTP/1.1 204 No Content\r\nContent-Length: 0\r\n\r\n");
  EXPECT_TRUE(p.take().has_value());
}

TEST(ResponseParser, KeepAliveSequenceOnOneConnection) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nA"
         "HTTP/1.1 200 OK\r\nContent-Length: 1\r\n\r\nB");
  const auto r1 = p.take();
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->body, "A");
  const auto r2 = p.take();
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->body, "B");
}

TEST(ResponseParser, BadStatusFails) {
  ResponseParser p;
  p.feed("HTTP/1.1 9999 Weird\r\n\r\n");
  EXPECT_TRUE(p.failed());
}

TEST(ResponseParser, ChunkedResponse) {
  ResponseParser p;
  p.feed("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
         "6\r\nchunky\r\n0\r\n\r\n");
  const auto resp = p.take();
  ASSERT_TRUE(resp.has_value());
  EXPECT_EQ(resp->body, "chunky");
}

// Property: any (method, target, body) round-trips through serialize+parse,
// fed in every possible two-way split.
class RoundTripSplit : public ::testing::TestWithParam<std::size_t> {};

TEST_P(RoundTripSplit, SerializeParseAnySplit) {
  HttpRequest req;
  req.method = "POST";
  req.target = "/path/to/resource?k=v";
  req.headers.set("Host", "10.0.0.2:80");
  req.headers.set("X-Probe", "rtt");
  req.body = "0123456789";
  const std::string wire = req.serialize();
  const std::size_t split = GetParam() % wire.size();

  RequestParser p;
  p.feed(wire.substr(0, split));
  p.feed(wire.substr(split));
  const auto out = p.take();
  ASSERT_TRUE(out.has_value());
  EXPECT_EQ(out->method, req.method);
  EXPECT_EQ(out->target, req.target);
  EXPECT_EQ(out->body, req.body);
  EXPECT_EQ(out->headers.get("x-probe"), "rtt");
}

INSTANTIATE_TEST_SUITE_P(Splits, RoundTripSplit,
                         ::testing::Values(0, 1, 5, 17, 30, 42, 55, 70, 88));

}  // namespace
}  // namespace bnm::http

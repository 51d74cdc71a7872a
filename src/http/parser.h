// Incremental HTTP/1.1 parser.
//
// Bytes arrive from TCP in arbitrary slices; feed() consumes them and emits
// complete messages. Framing: Content-Length, chunked transfer coding, or
// (responses only) connection-close delimiting. One parser instance handles
// a whole persistent connection: it resets itself after each message.
// Parsing is in place: lines are views into the receive buffer behind a
// read offset, and the consumed prefix is dropped once per feed(), so the
// only copies are the message fields themselves.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>

#include "http/message.h"
#include "net/payload.h"

namespace bnm::http {

enum class ParseError {
  kNone,
  kBadStartLine,
  kBadHeader,
  kBadChunk,
  kBodyTooLarge,
};

/// Common machinery for request/response parsing.
class MessageParser {
 public:
  virtual ~MessageParser() = default;

  /// Append bytes to the internal buffer. Call done()/take_*() afterwards.
  void feed(const std::string& bytes);
  /// Same, straight from a payload view (no intermediate string copy).
  void feed(const net::Payload& bytes);

  bool failed() const { return error_ != ParseError::kNone; }
  ParseError error() const { return error_; }

  /// Maximum allowed body size (default 64 MiB) — a parse error beyond it.
  void set_body_limit(std::size_t bytes) { body_limit_ = bytes; }

 protected:
  enum class Phase { kStartLine, kHeaders, kBody, kChunkSize, kChunkData,
                     kChunkTrailer, kComplete };

  void advance();
  virtual bool parse_start_line(std::string_view line) = 0;
  virtual Headers& headers_ref() = 0;
  virtual std::string& body_ref() = 0;
  /// Response parsers may treat a missing length as read-until-close.
  virtual bool length_required() const = 0;
  virtual void reset_message() = 0;

  void finish_headers();
  /// Next CRLF-terminated line as a view into buffer_ (valid until the
  /// next feed()), or false when no complete line is buffered.
  bool take_line(std::string_view& line);
  /// Move up to `limit` unread bytes into the body.
  std::size_t take_body(std::size_t limit);
  void fail(ParseError e) { error_ = e; }

  std::string buffer_;
  std::size_t pos_ = 0;  ///< read offset into buffer_
  Phase phase_ = Phase::kStartLine;
  ParseError error_ = ParseError::kNone;
  std::size_t body_limit_ = 64 * 1024 * 1024;
  std::size_t content_length_ = 0;
  bool has_content_length_ = false;
  bool chunked_ = false;
  std::size_t chunk_remaining_ = 0;
};

class RequestParser : public MessageParser {
 public:
  /// Complete request, if one is ready. Resets for the next message.
  std::optional<HttpRequest> take();

 private:
  bool parse_start_line(std::string_view line) override;
  Headers& headers_ref() override { return current_.headers; }
  std::string& body_ref() override { return current_.body; }
  bool length_required() const override { return true; }
  void reset_message() override { current_ = HttpRequest{}; }

  HttpRequest current_;
};

class ResponseParser : public MessageParser {
 public:
  std::optional<HttpResponse> take();

  /// Signal TCP FIN: a close-delimited body (no framing headers) completes.
  void on_connection_closed();

 private:
  bool parse_start_line(std::string_view line) override;
  Headers& headers_ref() override { return current_.headers; }
  std::string& body_ref() override { return current_.body; }
  bool length_required() const override { return false; }
  void reset_message() override { current_ = HttpResponse{}; }

  HttpResponse current_;
  bool close_delimited_ = false;
};

}  // namespace bnm::http

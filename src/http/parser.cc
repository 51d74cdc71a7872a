#include "http/parser.h"

#include <algorithm>
#include <cstdlib>
#include <limits>

namespace bnm::http {

namespace {

bool is_space(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\v' || c == '\f' ||
         c == '\r';
}

// Trim ASCII whitespace from both ends.
std::string_view trim(std::string_view s) {
  std::size_t b = 0, e = s.size();
  while (b < e && is_space(s[b])) ++b;
  while (e > b && is_space(s[e - 1])) --e;
  return s.substr(b, e - b);
}

/// Content-Length = 1*DIGIT (RFC 9112 §6.3): no sign, no blanks, no
/// overflow. False on anything else.
bool parse_content_length(std::string_view s, std::uint64_t& out) {
  if (s.empty()) return false;
  constexpr std::uint64_t kMax = std::numeric_limits<std::uint64_t>::max();
  std::uint64_t v = 0;
  for (const char c : s) {
    if (c < '0' || c > '9') return false;
    const auto d = static_cast<std::uint64_t>(c - '0');
    if (v > (kMax - d) / 10) return false;
    v = v * 10 + d;
  }
  out = v;
  return true;
}

}  // namespace

void MessageParser::feed(const std::string& bytes) {
  if (failed()) return;
  buffer_.erase(0, pos_);
  pos_ = 0;
  buffer_ += bytes;
  advance();
}

void MessageParser::feed(const net::Payload& bytes) {
  if (failed()) return;
  buffer_.erase(0, pos_);
  pos_ = 0;
  buffer_.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
  advance();
}

bool MessageParser::take_line(std::string_view& line) {
  const auto end = buffer_.find("\r\n", pos_);
  if (end == std::string::npos) return false;
  line = std::string_view{buffer_}.substr(pos_, end - pos_);
  pos_ = end + 2;
  return true;
}

std::size_t MessageParser::take_body(std::size_t limit) {
  const std::size_t n = std::min(limit, buffer_.size() - pos_);
  body_ref().append(buffer_, pos_, n);
  pos_ += n;
  return n;
}

void MessageParser::finish_headers() {
  has_content_length_ = false;
  chunked_ = false;
  content_length_ = 0;

  const Headers& h = headers_ref();
  if (const auto te = h.get("Transfer-Encoding")) {
    if (Headers::icontains(*te, "chunked")) chunked_ = true;
  }
  if (!chunked_) {
    // Every Content-Length must be a valid 1*DIGIT and all must agree;
    // anything else makes the framing unknowable (RFC 9112 §6.3).
    std::uint64_t length = 0;
    for (const auto& [name, value] : h.entries()) {
      if (!Headers::iequals(name, "Content-Length")) continue;
      std::uint64_t v = 0;
      if (!parse_content_length(value, v) ||
          (has_content_length_ && v != length)) {
        fail(ParseError::kBadHeader);
        return;
      }
      has_content_length_ = true;
      length = v;
    }
    if (has_content_length_) {
      if (length > body_limit_) {
        fail(ParseError::kBodyTooLarge);
        return;
      }
      content_length_ = static_cast<std::size_t>(length);
    }
  }

  if (chunked_) {
    phase_ = Phase::kChunkSize;
  } else if (has_content_length_) {
    phase_ = content_length_ == 0 ? Phase::kComplete : Phase::kBody;
  } else if (length_required()) {
    // Requests without framing have no body (GET and friends).
    phase_ = Phase::kComplete;
  } else {
    // Close-delimited response body.
    phase_ = Phase::kBody;
  }
}

void MessageParser::advance() {
  std::string_view line;
  for (;;) {
    switch (phase_) {
      case Phase::kStartLine: {
        if (!take_line(line)) return;
        if (line.empty()) continue;  // tolerate leading blank lines
        if (!parse_start_line(line)) {
          fail(ParseError::kBadStartLine);
          return;
        }
        phase_ = Phase::kHeaders;
        continue;
      }
      case Phase::kHeaders: {
        if (!take_line(line)) return;
        if (line.empty()) {
          finish_headers();
          if (failed()) return;
          continue;
        }
        const auto colon = line.find(':');
        if (colon == std::string_view::npos || colon == 0) {
          fail(ParseError::kBadHeader);
          return;
        }
        headers_ref().add(std::string{trim(line.substr(0, colon))},
                          std::string{trim(line.substr(colon + 1))});
        continue;
      }
      case Phase::kBody: {
        if (has_content_length_) {
          take_body(content_length_ - body_ref().size());
          if (body_ref().size() == content_length_) {
            phase_ = Phase::kComplete;
            continue;
          }
          return;  // need more bytes
        }
        // Close-delimited: absorb everything until on_connection_closed().
        take_body(buffer_.size() - pos_);
        if (body_ref().size() > body_limit_) fail(ParseError::kBodyTooLarge);
        return;
      }
      case Phase::kChunkSize: {
        if (!take_line(line)) return;
        const std::string size_line{line};  // short: no heap
        char* end = nullptr;
        const unsigned long long n =
            std::strtoull(size_line.c_str(), &end, 16);
        if (end == size_line.c_str()) {
          fail(ParseError::kBadChunk);
          return;
        }
        chunk_remaining_ = static_cast<std::size_t>(n);
        if (body_ref().size() + chunk_remaining_ > body_limit_) {
          fail(ParseError::kBodyTooLarge);
          return;
        }
        phase_ = chunk_remaining_ == 0 ? Phase::kChunkTrailer : Phase::kChunkData;
        continue;
      }
      case Phase::kChunkData: {
        chunk_remaining_ -= take_body(chunk_remaining_);
        if (chunk_remaining_ > 0) return;
        // Consume the CRLF after the chunk.
        if (buffer_.size() - pos_ < 2) return;
        if (buffer_[pos_] != '\r' || buffer_[pos_ + 1] != '\n') {
          fail(ParseError::kBadChunk);
          return;
        }
        pos_ += 2;
        phase_ = Phase::kChunkSize;
        continue;
      }
      case Phase::kChunkTrailer: {
        if (!take_line(line)) return;
        if (line.empty()) {
          phase_ = Phase::kComplete;
          continue;
        }
        continue;  // trailer headers ignored
      }
      case Phase::kComplete:
        return;
    }
  }
}

std::optional<HttpRequest> RequestParser::take() {
  if (failed() || phase_ != Phase::kComplete) return std::nullopt;
  HttpRequest out = std::move(current_);
  reset_message();
  phase_ = Phase::kStartLine;
  advance();  // a pipelined next message may already be buffered
  return out;
}

bool RequestParser::parse_start_line(std::string_view line) {
  const auto sp1 = line.find(' ');
  const auto sp2 = line.rfind(' ');
  if (sp1 == std::string_view::npos || sp2 == sp1) return false;
  current_.method.assign(line.substr(0, sp1));
  current_.target.assign(line.substr(sp1 + 1, sp2 - sp1 - 1));
  current_.version.assign(line.substr(sp2 + 1));
  return !current_.method.empty() && !current_.target.empty() &&
         current_.version.rfind("HTTP/", 0) == 0;
}

std::optional<HttpResponse> ResponseParser::take() {
  if (failed()) return std::nullopt;
  if (phase_ != Phase::kComplete) {
    if (!(close_delimited_ && phase_ == Phase::kBody)) return std::nullopt;
  }
  HttpResponse out = std::move(current_);
  reset_message();
  close_delimited_ = false;
  phase_ = Phase::kStartLine;
  advance();
  return out;
}

void ResponseParser::on_connection_closed() {
  // Only a close-delimited body (no framing headers) completes on FIN.
  if (phase_ == Phase::kBody && !has_content_length_ && !chunked_) {
    close_delimited_ = true;
  }
}

bool ResponseParser::parse_start_line(std::string_view line) {
  const auto sp1 = line.find(' ');
  if (sp1 == std::string_view::npos) return false;
  current_.version.assign(line.substr(0, sp1));
  if (current_.version.rfind("HTTP/", 0) != 0) return false;
  const auto sp2 = line.find(' ', sp1 + 1);
  const std::string code{sp2 == std::string_view::npos
                             ? line.substr(sp1 + 1)
                             : line.substr(sp1 + 1, sp2 - sp1 - 1)};
  current_.status = std::atoi(code.c_str());
  current_.reason.assign(sp2 == std::string_view::npos ? std::string_view{}
                                                      : line.substr(sp2 + 1));
  return current_.status >= 100 && current_.status <= 599;
}

}  // namespace bnm::http

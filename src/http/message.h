// HTTP/1.1 message model: requests, responses, header multimap with
// case-insensitive names, and wire serialization (RFC 7230 subset:
// Content-Length and chunked framing, no trailers).
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace bnm::http {

/// Ordered header list with case-insensitive name lookup (HTTP header names
/// are case-insensitive; order is preserved for faithful serialization).
class Headers {
 public:
  void add(std::string name, std::string value);
  /// Replace all occurrences of `name` with a single header.
  void set(std::string name, std::string value);
  /// First value of `name`, if present: a view into this header list,
  /// valid until the list is next modified.
  std::optional<std::string_view> get(std::string_view name) const;
  bool contains(std::string_view name) const;
  void remove(std::string_view name);
  std::size_t size() const { return entries_.size(); }
  bool empty() const { return entries_.empty(); }

  const std::vector<std::pair<std::string, std::string>>& entries() const {
    return entries_;
  }

  /// Case-insensitive ASCII comparison (locale-independent), exposed for
  /// the parser.
  static bool iequals(std::string_view a, std::string_view b);
  /// Case-insensitive ASCII substring test (token checks in Connection /
  /// Transfer-Encoding values).
  static bool icontains(std::string_view haystack, std::string_view needle);

 private:
  std::vector<std::pair<std::string, std::string>> entries_;
};

struct HttpRequest {
  std::string method = "GET";
  std::string target = "/";
  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  /// Serialize with correct framing: adds Content-Length when a body is
  /// present and no framing header was set. Builds the wire bytes in one
  /// buffer reserved to size.
  std::string serialize() const;

  bool wants_keep_alive() const;
};

struct HttpResponse {
  int status = 200;
  std::string reason = "OK";
  std::string version = "HTTP/1.1";
  Headers headers;
  std::string body;

  std::string serialize() const;
  bool wants_keep_alive() const;

  static HttpResponse make(int status, std::string body,
                           std::string content_type = "text/plain");
};

/// Standard reason phrase for a status code ("OK", "Not Found", ...).
std::string reason_phrase(int status);

/// Encode `body` as a single chunked-transfer-encoded payload.
std::string chunked_encode(const std::string& body, std::size_t chunk_size = 4096);

}  // namespace bnm::http

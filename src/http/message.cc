#include "http/message.h"

#include <algorithm>
#include <cstdio>

namespace bnm::http {

namespace {
char ascii_lower(char c) {
  return c >= 'A' && c <= 'Z' ? static_cast<char>(c - 'A' + 'a') : c;
}
}  // namespace

bool Headers::iequals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (ascii_lower(a[i]) != ascii_lower(b[i])) return false;
  }
  return true;
}

bool Headers::icontains(std::string_view haystack, std::string_view needle) {
  for (std::size_t i = 0; i + needle.size() <= haystack.size(); ++i) {
    if (iequals(haystack.substr(i, needle.size()), needle)) return true;
  }
  return false;
}

void Headers::add(std::string name, std::string value) {
  // One allocation covers a typical message's headers.
  if (entries_.capacity() == 0) entries_.reserve(4);
  entries_.emplace_back(std::move(name), std::move(value));
}

void Headers::set(std::string name, std::string value) {
  remove(name);
  add(std::move(name), std::move(value));
}

std::optional<std::string_view> Headers::get(std::string_view name) const {
  for (const auto& [n, v] : entries_) {
    if (iequals(n, name)) return v;
  }
  return std::nullopt;
}

bool Headers::contains(std::string_view name) const {
  return get(name).has_value();
}

void Headers::remove(std::string_view name) {
  entries_.erase(std::remove_if(entries_.begin(), entries_.end(),
                                [&](const auto& e) {
                                  return iequals(e.first, name);
                                }),
                 entries_.end());
}

namespace {
bool keep_alive_from(const Headers& headers, const std::string& version) {
  if (const auto c = headers.get("Connection")) {
    if (Headers::icontains(*c, "close")) return false;
    if (Headers::icontains(*c, "keep-alive")) return true;
  }
  return version == "HTTP/1.1";  // 1.1 defaults to persistent
}

bool has_framing(const Headers& headers) {
  return headers.contains("Content-Length") ||
         headers.contains("Transfer-Encoding");
}

/// Append `a SP b SP c CRLF`, the header block, an optional generated
/// Content-Length, the blank line and the body into one buffer reserved to
/// the exact wire size.
std::string serialize_message(std::string_view a, std::string_view b,
                              std::string_view c, const Headers& headers,
                              bool add_length, const std::string& body) {
  static constexpr std::string_view kLengthName = "Content-Length: ";
  const std::string length =
      add_length ? std::to_string(body.size()) : std::string{};
  std::size_t size = a.size() + b.size() + c.size() + 4 + 2 + body.size();
  for (const auto& [n, v] : headers.entries()) size += n.size() + v.size() + 4;
  if (add_length) size += kLengthName.size() + length.size() + 2;

  std::string out;
  out.reserve(size);
  out.append(a).append(" ").append(b).append(" ").append(c).append("\r\n");
  for (const auto& [n, v] : headers.entries()) {
    out.append(n).append(": ").append(v).append("\r\n");
  }
  if (add_length) out.append(kLengthName).append(length).append("\r\n");
  out.append("\r\n").append(body);
  return out;
}
}  // namespace

std::string HttpRequest::serialize() const {
  return serialize_message(method, target, version, headers,
                           !has_framing(headers) && !body.empty(), body);
}

bool HttpRequest::wants_keep_alive() const {
  return keep_alive_from(headers, version);
}

std::string HttpResponse::serialize() const {
  // Responses always carry explicit framing so keep-alive works, even for
  // empty bodies.
  const std::string code = std::to_string(status);
  return serialize_message(version, code, reason, headers,
                           !has_framing(headers), body);
}

bool HttpResponse::wants_keep_alive() const {
  return keep_alive_from(headers, version);
}

HttpResponse HttpResponse::make(int status, std::string body,
                                std::string content_type) {
  HttpResponse r;
  r.status = status;
  r.reason = reason_phrase(status);
  r.headers.set("Content-Type", std::move(content_type));
  r.body = std::move(body);
  return r;
}

std::string reason_phrase(int status) {
  switch (status) {
    case 200: return "OK";
    case 101: return "Switching Protocols";
    case 204: return "No Content";
    case 301: return "Moved Permanently";
    case 302: return "Found";
    case 304: return "Not Modified";
    case 400: return "Bad Request";
    case 403: return "Forbidden";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 411: return "Length Required";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    default: return "Unknown";
  }
}

std::string chunked_encode(const std::string& body, std::size_t chunk_size) {
  std::string out;
  std::size_t pos = 0;
  char size_line[32];
  while (pos < body.size()) {
    const std::size_t n = std::min(chunk_size, body.size() - pos);
    std::snprintf(size_line, sizeof size_line, "%zx\r\n", n);
    out += size_line;
    out.append(body, pos, n);
    out += "\r\n";
    pos += n;
  }
  out += "0\r\n\r\n";
  return out;
}

}  // namespace bnm::http

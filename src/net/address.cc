#include "net/address.h"

#include <charconv>
#include <cstdio>
#include <stdexcept>

namespace bnm::net {

IpAddress IpAddress::parse(const std::string& dotted) {
  unsigned a, b, c, d;
  char extra;
  if (std::sscanf(dotted.c_str(), "%u.%u.%u.%u%c", &a, &b, &c, &d, &extra) != 4 ||
      a > 255 || b > 255 || c > 255 || d > 255) {
    throw std::invalid_argument("bad IPv4 address: " + dotted);
  }
  return IpAddress{static_cast<std::uint8_t>(a), static_cast<std::uint8_t>(b),
                   static_cast<std::uint8_t>(c), static_cast<std::uint8_t>(d)};
}

namespace {

/// Writes the dotted quad at `out` (at most 15 bytes); returns its end.
char* format_ip(char* out, std::uint32_t raw) {
  for (int shift = 24; shift >= 0; shift -= 8) {
    out = std::to_chars(out, out + 3, (raw >> shift) & 0xff).ptr;
    if (shift != 0) *out++ = '.';
  }
  return out;
}

}  // namespace

std::string IpAddress::to_string() const {
  char buf[15];
  return {buf, format_ip(buf, raw_)};
}

std::string Endpoint::to_string() const {
  char buf[21];  // "255.255.255.255:65535"
  char* end = format_ip(buf, ip.raw());
  *end++ = ':';
  end = std::to_chars(end, buf + sizeof buf, port).ptr;
  return {buf, end};
}

std::string FourTuple::to_string() const {
  return local.to_string() + "<->" + remote.to_string();
}

}  // namespace bnm::net

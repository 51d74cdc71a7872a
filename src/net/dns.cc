#include "net/dns.h"

#include <utility>

namespace bnm::net {

namespace {

void put_u16(std::vector<std::uint8_t>& out, std::uint16_t v) {
  out.push_back(static_cast<std::uint8_t>(v >> 8));
  out.push_back(static_cast<std::uint8_t>(v & 0xff));
}

void put_u32(std::vector<std::uint8_t>& out, std::uint32_t v) {
  put_u16(out, static_cast<std::uint16_t>(v >> 16));
  put_u16(out, static_cast<std::uint16_t>(v & 0xffff));
}

/// Encode "a.b.c" as 1a1b1c0 label sequence. Returns false on bad labels.
bool put_qname(std::vector<std::uint8_t>& out, const std::string& name) {
  std::size_t start = 0;
  while (start <= name.size()) {
    auto dot = name.find('.', start);
    if (dot == std::string::npos) dot = name.size();
    const std::size_t len = dot - start;
    if (len == 0 || len > 63) return false;
    out.push_back(static_cast<std::uint8_t>(len));
    for (std::size_t i = start; i < dot; ++i) {
      out.push_back(static_cast<std::uint8_t>(name[i]));
    }
    if (dot == name.size()) break;
    start = dot + 1;
  }
  out.push_back(0);
  return true;
}

std::optional<std::string> read_qname(const Payload& wire,
                                      std::size_t& pos) {
  std::string name;
  while (pos < wire.size()) {
    const std::uint8_t len = wire[pos++];
    if (len == 0) return name;
    if ((len & 0xC0) != 0) return std::nullopt;  // no compression support
    if (pos + len > wire.size()) return std::nullopt;
    if (!name.empty()) name += '.';
    name.append(wire.begin() + static_cast<std::ptrdiff_t>(pos),
                wire.begin() + static_cast<std::ptrdiff_t>(pos + len));
    pos += len;
  }
  return std::nullopt;
}

std::optional<std::uint16_t> read_u16(const Payload& wire,
                                      std::size_t& pos) {
  if (pos + 2 > wire.size()) return std::nullopt;
  const std::uint16_t v =
      static_cast<std::uint16_t>((wire[pos] << 8) | wire[pos + 1]);
  pos += 2;
  return v;
}

constexpr std::uint16_t kTypeA = 1;
constexpr std::uint16_t kClassIn = 1;

}  // namespace

std::vector<std::uint8_t> DnsMessage::encode() const {
  std::vector<std::uint8_t> out;
  put_u16(out, id);
  // Flags: QR at bit 15, RD set, RCODE low nibble.
  std::uint16_t flags = 0x0100;  // RD
  if (is_response) flags |= 0x8000 | rcode;
  put_u16(out, flags);
  put_u16(out, 1);                            // QDCOUNT
  put_u16(out, is_response && answer ? 1 : 0);  // ANCOUNT
  put_u16(out, 0);                            // NSCOUNT
  put_u16(out, 0);                            // ARCOUNT
  if (!put_qname(out, qname)) return {};
  put_u16(out, kTypeA);
  put_u16(out, kClassIn);
  if (is_response && answer) {
    put_qname(out, qname);  // no compression: repeat the name
    put_u16(out, kTypeA);
    put_u16(out, kClassIn);
    put_u32(out, ttl_seconds);
    put_u16(out, 4);  // RDLENGTH
    put_u32(out, answer->raw());
  }
  return out;
}

std::optional<DnsMessage> DnsMessage::decode(const Payload& wire) {
  std::size_t pos = 0;
  DnsMessage msg;
  const auto id = read_u16(wire, pos);
  const auto flags = read_u16(wire, pos);
  const auto qdcount = read_u16(wire, pos);
  const auto ancount = read_u16(wire, pos);
  if (!id || !flags || !qdcount || !ancount) return std::nullopt;
  pos += 4;  // NSCOUNT + ARCOUNT
  if (*qdcount != 1) return std::nullopt;

  msg.id = *id;
  msg.is_response = (*flags & 0x8000) != 0;
  msg.rcode = static_cast<std::uint8_t>(*flags & 0x000F);

  const auto qname = read_qname(wire, pos);
  if (!qname) return std::nullopt;
  msg.qname = *qname;
  const auto qtype = read_u16(wire, pos);
  const auto qclass = read_u16(wire, pos);
  if (!qtype || !qclass || *qtype != kTypeA || *qclass != kClassIn) {
    return std::nullopt;
  }

  if (msg.is_response && *ancount >= 1) {
    const auto aname = read_qname(wire, pos);
    const auto atype = read_u16(wire, pos);
    const auto aclass = read_u16(wire, pos);
    const auto ttl_hi = read_u16(wire, pos);
    const auto ttl_lo = read_u16(wire, pos);
    const auto rdlen = read_u16(wire, pos);
    if (!aname || !atype || !aclass || !ttl_hi || !ttl_lo || !rdlen ||
        *rdlen != 4 || pos + 4 > wire.size()) {
      return std::nullopt;
    }
    msg.ttl_seconds =
        (static_cast<std::uint32_t>(*ttl_hi) << 16) | *ttl_lo;
    msg.answer = IpAddress{(static_cast<std::uint32_t>(wire[pos]) << 24) |
                           (static_cast<std::uint32_t>(wire[pos + 1]) << 16) |
                           (static_cast<std::uint32_t>(wire[pos + 2]) << 8) |
                           wire[pos + 3]};
  }
  return msg;
}

// -------------------------------------------------------------------- server

DnsServer::DnsServer(Host& host, Port port) : host_{host} {
  socket_ = host_.udp_open(
      port, [this](Endpoint src, const Payload& data) {
        const auto query = DnsMessage::decode(data);
        if (!query || query->is_response) return;
        ++queries_;
        DnsMessage reply = *query;
        reply.is_response = true;
        const auto it = zone_.find(query->qname);
        if (it != zone_.end()) {
          reply.answer = it->second;
          reply.rcode = 0;
        } else {
          reply.answer.reset();
          reply.rcode = 3;  // NXDOMAIN
        }
        socket_->send_to(src, reply.encode());
      });
}

void DnsServer::add_record(const std::string& name, IpAddress address) {
  zone_[name] = address;
}

// ------------------------------------------------------------------ resolver

DnsResolver::DnsResolver(Host& host, Endpoint server)
    : host_{host}, server_{server} {
  socket_ = host_.udp_open(
      [this](Endpoint src, const Payload& data) {
        on_datagram(src, data);
      });
}

bool DnsResolver::cached(const std::string& name) const {
  const auto it = cache_.find(name);
  return it != cache_.end() && it->second.expires > host_.sim().now();
}

void DnsResolver::resolve(const std::string& name, Callback cb) {
  if (const auto it = cache_.find(name);
      it != cache_.end() && it->second.expires > host_.sim().now()) {
    ++cache_hits_;
    // Asynchronous like a real API, even on a hit.
    host_.sim().scheduler().post_after(
        sim::Duration::micros(20),
        [cb = std::move(cb), addr = it->second.address] { cb(addr); });
    return;
  }

  const std::uint16_t id = next_id_++;
  DnsMessage query;
  query.id = id;
  query.qname = name;

  Pending pending;
  pending.name = name;
  pending.cb = std::move(cb);
  pending.timeout = host_.sim().scheduler().schedule_after(timeout_, [this, id] {
    const auto it = pending_.find(id);
    if (it == pending_.end()) return;
    auto cb = std::move(it->second.cb);
    pending_.erase(it);
    cb(std::nullopt);
  });
  pending_.emplace(id, std::move(pending));

  ++queries_sent_;
  socket_->send_to(server_, query.encode());
}

void DnsResolver::on_datagram(Endpoint src, const Payload& data) {
  if (src != server_) return;
  const auto reply = DnsMessage::decode(data);
  if (!reply || !reply->is_response) return;
  const auto it = pending_.find(reply->id);
  if (it == pending_.end()) return;  // late or spoofed
  auto pending = std::move(it->second);
  pending_.erase(it);
  pending.timeout.cancel();

  if (reply->rcode == 0 && reply->answer) {
    cache_[pending.name] = CacheEntry{
        *reply->answer,
        host_.sim().now() + sim::Duration::seconds(reply->ttl_seconds)};
    pending.cb(*reply->answer);
  } else {
    pending.cb(std::nullopt);
  }
}

}  // namespace bnm::net

#include <gtest/gtest.h>

#include <stdexcept>
#include <unordered_set>

#include "net/address.h"

namespace bnm::net {
namespace {

TEST(IpAddress, ParseAndFormatRoundtrip) {
  for (const char* s : {"0.0.0.0", "10.0.0.1", "192.168.255.254", "255.255.255.255"}) {
    EXPECT_EQ(IpAddress::parse(s).to_string(), s);
  }
}

TEST(IpAddress, OctetLayout) {
  const IpAddress a{10, 20, 30, 40};
  EXPECT_EQ(a.raw(), 0x0A141E28u);
  EXPECT_EQ(a.to_string(), "10.20.30.40");
  EXPECT_EQ(IpAddress{0u}.to_string(), "0.0.0.0");
  EXPECT_EQ(IpAddress{0xffffffffu}.to_string(), "255.255.255.255");
}

TEST(IpAddress, ParseRejectsMalformed) {
  for (const char* s :
       {"", "1.2.3", "1.2.3.4.5", "256.1.1.1", "a.b.c.d", "1.2.3.4x"}) {
    EXPECT_THROW(IpAddress::parse(s), std::invalid_argument) << s;
  }
}

TEST(IpAddress, Ordering) {
  EXPECT_LT(IpAddress(10, 0, 0, 1), IpAddress(10, 0, 0, 2));
  EXPECT_EQ(IpAddress(10, 0, 0, 1), IpAddress::parse("10.0.0.1"));
}

TEST(Endpoint, Format) {
  const Endpoint e{IpAddress{10, 0, 0, 2}, 8080};
  EXPECT_EQ(e.to_string(), "10.0.0.2:8080");
  EXPECT_EQ((Endpoint{IpAddress{0u}, 0}).to_string(), "0.0.0.0:0");
  EXPECT_EQ((Endpoint{IpAddress{0xffffffffu}, 65535}).to_string(),
            "255.255.255.255:65535");
}

TEST(Endpoint, Equality) {
  const Endpoint a{IpAddress{1, 2, 3, 4}, 80};
  const Endpoint b{IpAddress{1, 2, 3, 4}, 81};
  EXPECT_NE(a, b);
  EXPECT_EQ(a, (Endpoint{IpAddress{1, 2, 3, 4}, 80}));
}

TEST(FourTuple, ReversedSwapsEnds) {
  const FourTuple t{{IpAddress{1, 1, 1, 1}, 1000}, {IpAddress{2, 2, 2, 2}, 80}};
  const FourTuple r = t.reversed();
  EXPECT_EQ(r.local, t.remote);
  EXPECT_EQ(r.remote, t.local);
  EXPECT_EQ(r.reversed(), t);
}

TEST(Hashing, EndpointsAndTuplesUsableAsKeys) {
  std::unordered_set<Endpoint> eps;
  std::unordered_set<FourTuple> tuples;
  for (std::uint8_t i = 0; i < 100; ++i) {
    const Endpoint e{IpAddress{10, 0, 0, i}, static_cast<Port>(1000 + i)};
    eps.insert(e);
    tuples.insert(FourTuple{e, {IpAddress{1, 1, 1, 1}, 80}});
  }
  EXPECT_EQ(eps.size(), 100u);
  EXPECT_EQ(tuples.size(), 100u);
}

}  // namespace
}  // namespace bnm::net

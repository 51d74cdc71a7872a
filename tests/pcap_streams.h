// Streams for PcapReader tests: a pipe-like stream buffer that delivers its
// bytes a few at a time and never tells how many are left, and the test
// that a read through it gives the same Result as a read of the whole
// string.
#pragma once

#include <gtest/gtest.h>

#include <algorithm>
#include <cstddef>
#include <istream>
#include <sstream>
#include <streambuf>
#include <string>
#include <utility>

#include "net/pcap_reader.h"

namespace bnm::test {

/// Hands out its bytes 1 to 7 at a time (cycling), one batch per
/// underflow, and keeps showmanyc() at its default, so in_avail() reports
/// 0 until the first batch is read: the reader can neither size anything
/// by it nor get more than a few bytes from one underflow.
class TrickleBuf : public std::streambuf {
 public:
  explicit TrickleBuf(std::string bytes) : bytes_{std::move(bytes)} {}

 protected:
  int_type underflow() override {
    if (at_ >= bytes_.size()) return traits_type::eof();
    const std::size_t n = std::min<std::size_t>(1 + batches_++ % 7,
                                                bytes_.size() - at_);
    char* p = bytes_.data() + at_;
    setg(p, p, p + n);
    at_ += n;
    return traits_type::to_int_type(*p);
  }

 private:
  std::string bytes_;
  std::size_t at_ = 0;
  std::size_t batches_ = 0;
};

inline net::PcapReader::Result read_whole(const std::string& bytes) {
  std::istringstream in{bytes};
  return net::PcapReader::read(in);
}

inline net::PcapReader::Result read_trickled(const std::string& bytes) {
  TrickleBuf buf{bytes};
  std::istream in{&buf};
  return net::PcapReader::read(in);
}

/// Same error, link type and records, in order.
inline ::testing::AssertionResult same_result(
    const net::PcapReader::Result& a, const net::PcapReader::Result& b) {
  if (a.error != b.error) {
    return ::testing::AssertionFailure()
           << "error " << static_cast<int>(a.error) << " vs "
           << static_cast<int>(b.error);
  }
  if (a.link_type != b.link_type) {
    return ::testing::AssertionFailure()
           << "link type " << a.link_type << " vs " << b.link_type;
  }
  if (a.records != b.records) {
    return ::testing::AssertionFailure()
           << a.records.size() << " vs " << b.records.size()
           << " records, or a record differs";
  }
  return ::testing::AssertionSuccess();
}

}  // namespace bnm::test

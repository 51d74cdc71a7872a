// Time-sequence diagram of a packet capture: the classic two-lifeline
// client/server exchange picture, rendered in ASCII. Used by examples to
// show *why* a measurement came out the way it did (handshake included?
// connection reused? where did the 50 ms go?).
//
//   +0.000ms   client  SYN ----------------------------->  server
//   +50.41ms   client  <----------------------------- S.   server
#pragma once

#include <string>

#include "net/capture.h"

namespace bnm::report {

class SequenceRenderer {
 public:
  struct Options {
    std::size_t arrow_width = 44;
    /// Print at most this many records (0 = all).
    std::size_t limit = 0;
    /// Drop pure ACKs to keep the story readable.
    bool hide_pure_acks = false;
    /// Timestamps relative to the first shown record.
    bool relative_time = true;
  };

  explicit SequenceRenderer(Options options) : options_{options} {}
  SequenceRenderer() : SequenceRenderer(Options{}) {}

  /// Render the capture's records in capture order.
  std::string render(const net::PacketCapture& capture) const;

 private:
  std::string describe(const net::Packet& packet) const;

  Options options_;
};

}  // namespace bnm::report

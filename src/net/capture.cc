#include "net/capture.h"

#include <algorithm>
#include <utility>

namespace bnm::net {

PacketCapture::PacketCapture(sim::Simulation& sim, Config config)
    : sim_{sim}, config_{std::move(config)}, rng_{sim.rng_for(config_.name)} {}

void PacketCapture::record(CaptureDirection direction, const Packet& packet) {
  if (!config_.enabled) return;
  const sim::TimePoint now = sim_.now();
  sim::TimePoint stamp = now;
  if (!config_.timestamp_jitter.is_zero()) {
    stamp += rng_.uniform_ms(0.0, config_.timestamp_jitter.ms_f());
  }
  timestamp_.push_back(stamp);
  true_time_.push_back(now);
  direction_.push_back(direction);
  // Metadata copy + shared payload view — never a byte copy.
  packets_.push_back(packet);
}

void PacketCapture::clear() {
  timestamp_.clear();
  true_time_.clear();
  direction_.clear();
  packets_.clear();
}

void PacketCapture::reserve(std::size_t n) {
  timestamp_.reserve(n);
  true_time_.reserve(n);
  direction_.reserve(n);
  packets_.reserve(n);
}

std::size_t PacketCapture::first_index_at_or_after(sim::TimePoint t) const {
  const auto it = std::lower_bound(true_time_.begin(), true_time_.end(), t);
  return static_cast<std::size_t>(it - true_time_.begin());
}

}  // namespace bnm::net

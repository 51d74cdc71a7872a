// Payload copy accounting: how many payload bytes does the stack actually
// memcpy, now that packets carry refcounted Payload views instead of owned
// byte vectors?
//
// Three sections:
//
//   1. TCP bulk transfer (the headline): push a large buffer through the
//      testbed's echo server and compare bytes deep-copied against bytes
//      merely aliased. Every aliased byte is a copy the old owned-vector
//      design paid (per segmentation chunk, per retransmit-queue entry, per
//      capture record, per reassembly insert, per echo re-send). Expected
//      reduction: >= 5x.
//   2. Browser probe matrix: the same counters over a slice of the
//      Figure-3 experiment matrix. Handshake-heavy and string-built, so
//      unavoidable string->buffer creation copies dilute the ratio; shown
//      for context, not checked.
//   3. Micro: ns per packet hand-off for an aliasing Payload copy vs the
//      old deep vector copy, at a typical MSS-sized payload.
//
// Emits BENCH_payload_copy.json (gates[] included) in the working
// directory; exits non-zero when a gate fails.
//
//   $ payload_copy [--runs=N] [--jobs=N]   (default 12 runs per cell)
#include <chrono>
#include <cstdio>
#include <memory>
#include <vector>

#include "bench_util.h"
#include "core/testbed.h"
#include "net/packet.h"
#include "net/payload.h"
#include "net/tcp.h"

using namespace bnm;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct CopyCounts {
  std::uint64_t deep_bytes = 0;     ///< bytes actually memcpy'd
  std::uint64_t aliased_bytes = 0;  ///< copies the old design would have made
  std::uint64_t buffers = 0;
  std::uint64_t old_design_bytes() const { return deep_bytes + aliased_bytes; }
  double reduction() const {
    return static_cast<double>(old_design_bytes()) /
           static_cast<double>(deep_bytes > 0 ? deep_bytes : 1);
  }
  void print() const {
    std::printf("  deep-copied bytes  ... %12llu\n",
                static_cast<unsigned long long>(deep_bytes));
    std::printf("  aliased bytes      ... %12llu  (old design: deep copies)\n",
                static_cast<unsigned long long>(aliased_bytes));
    std::printf("  buffers allocated  ... %12llu\n",
                static_cast<unsigned long long>(buffers));
    if (deep_bytes == 0) {
      std::printf("  old/new copy ratio ...         inf (no deep copies)\n");
    } else {
      std::printf("  old/new copy ratio ... %11.1fx\n", reduction());
    }
  }
};

CopyCounts snapshot_stats() {
  CopyCounts c;
  c.deep_bytes = net::PayloadStats::deep_copy_bytes();
  c.aliased_bytes = net::PayloadStats::aliased_bytes();
  c.buffers = net::PayloadStats::buffers_allocated();
  return c;
}

struct BulkResult {
  std::size_t transfer_bytes = 0;
  std::size_t echoed_bytes = 0;
  CopyCounts counts;
};

// One client->echo->client round trip of a bulk buffer: the TCP-heavy
// workload where per-hop copying dominates (segmentation, capture taps,
// retransmit queue, reassembly, and the echo server's re-send).
BulkResult bench_tcp_bulk() {
  BulkResult r;
  constexpr std::size_t kTransfer = 256 * 1024;
  r.transfer_bytes = kTransfer;

  core::Testbed::Config cfg;
  cfg.tcp.congestion_control = true;
  core::Testbed tb{cfg};

  net::PayloadStats::reset();

  std::size_t echoed = 0;
  std::shared_ptr<net::TcpConnection> conn;
  net::TcpCallbacks cbs;
  cbs.on_connect = [&] {
    conn->send(std::vector<std::uint8_t>(kTransfer, 0x42));
  };
  cbs.on_data = [&](const net::Payload& d) {
    echoed += d.size();
    if (echoed >= kTransfer) conn->close();
  };
  conn = tb.client().tcp_connect(tb.tcp_echo_endpoint(), std::move(cbs));
  tb.sim().scheduler().run();
  conn.reset();

  r.echoed_bytes = echoed;
  r.counts = snapshot_stats();

  std::printf("tcp bulk: %zu bytes client -> echo -> client (%zu echoed)\n",
              r.transfer_bytes, r.echoed_bytes);
  r.counts.print();
  return r;
}

struct MatrixResult {
  std::size_t cells = 0;
  int runs = 0;
  CopyCounts counts;
};

MatrixResult bench_probe_matrix(int runs) {
  MatrixResult r;
  r.runs = runs;

  std::vector<core::ExperimentConfig> cells;
  for (const auto& who : browser::paper_cases()) {
    for (const auto kind : browser::all_probe_kinds()) {
      cells.push_back(benchutil::make_config(who.browser, who.os, kind, runs));
    }
  }
  r.cells = cells.size();

  std::printf("probe matrix: %zu cells x %d runs (serial; global counters)\n",
              r.cells, runs);
  net::PayloadStats::reset();
  const auto t0 = Clock::now();
  const auto series = core::run_matrix(cells, /*jobs=*/1);
  const auto t1 = Clock::now();
  r.counts = snapshot_stats();

  std::size_t failures = 0;
  for (const auto& s : series) failures += s.failures;
  std::printf("  wall time          ... %8.1f ms (%zu failures)\n",
              ms_between(t0, t1), failures);
  r.counts.print();
  return r;
}

struct Micro {
  std::size_t payload_bytes = 0;
  std::size_t handoffs = 0;
  double alias_ns = 0;  ///< per hand-off, Payload (refcount bump)
  double deep_ns = 0;   ///< per hand-off, old design (vector deep copy)
};

Micro bench_handoff() {
  Micro m;
  constexpr std::size_t kPayload = 1400;  // ~MSS worth of probe data
  constexpr std::size_t kHandoffs = 200000;
  m.payload_bytes = kPayload;
  m.handoffs = kHandoffs;

  volatile std::uint8_t sink = 0;

  {
    const net::Payload src{std::vector<std::uint8_t>(kPayload, 0x42)};
    const auto a0 = Clock::now();
    for (std::size_t i = 0; i < kHandoffs; ++i) {
      net::Payload hop = src;  // what a forwarding hop / capture tap pays now
      sink = sink + hop[i % kPayload];
    }
    const auto a1 = Clock::now();
    m.alias_ns = ms_between(a0, a1) * 1e6 / kHandoffs;
  }

  {
    const std::vector<std::uint8_t> src(kPayload, 0x42);
    const auto d0 = Clock::now();
    for (std::size_t i = 0; i < kHandoffs; ++i) {
      std::vector<std::uint8_t> hop = src;  // what it used to pay
      sink = sink + hop[i % kPayload];
    }
    const auto d1 = Clock::now();
    m.deep_ns = ms_between(d0, d1) * 1e6 / kHandoffs;
  }

  std::printf("hand-off: %zu-byte payload, %zu hops per variant\n",
              m.payload_bytes, m.handoffs);
  std::printf("  Payload alias copy ... %8.1f ns/packet\n", m.alias_ns);
  std::printf("  vector deep copy   ... %8.1f ns/packet\n", m.deep_ns);
  return m;
}

/// The workload's own fields followed by its copy-count block.
benchutil::Json with_counts(benchutil::Json workload, const CopyCounts& c) {
  using benchutil::integer;
  workload.add("deep_copy_bytes", integer(c.deep_bytes));
  workload.add("aliased_bytes", integer(c.aliased_bytes));
  workload.add("old_design_bytes", integer(c.old_design_bytes()));
  workload.add("buffers_allocated", integer(c.buffers));
  workload.add("copy_reduction", benchutil::num(c.reduction()));
  return workload;
}

benchutil::Json to_json(const BulkResult& b, const MatrixResult& x,
                        const Micro& m) {
  using namespace benchutil;
  return obj({
      {"tcp_bulk", with_counts(obj({{"transfer_bytes", integer(b.transfer_bytes)},
                                    {"echoed_bytes", integer(b.echoed_bytes)}}),
                               b.counts)},
      {"probe_matrix", with_counts(obj({{"cells", integer(x.cells)},
                                        {"runs_per_cell", integer(x.runs)}}),
                                   x.counts)},
      {"handoff", obj({
                      {"payload_bytes", integer(m.payload_bytes)},
                      {"handoffs", integer(m.handoffs)},
                      {"alias_ns_per_packet", num(m.alias_ns)},
                      {"deep_copy_ns_per_packet", num(m.deep_ns)},
                  })},
  });
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::options().runs = 12;  // perf default; --runs=N overrides
  const auto& opts = benchutil::init(argc, argv);

  benchutil::banner("payload_copy: payload byte-copy accounting");

  const BulkResult b = bench_tcp_bulk();
  std::printf("\n");
  const MatrixResult x = bench_probe_matrix(opts.runs);
  std::printf("\n");
  const Micro m = bench_handoff();

  return benchutil::write_result(
      "BENCH_payload_copy.json", to_json(b, x, m),
      {
          // The bulk transfer came back in full...
          benchutil::at_least("tcp_bulk.echoed_bytes",
                              static_cast<double>(b.transfer_bytes)),
          // ...and zero-copy payloads cut its copied bytes >= 5x.
          benchutil::at_least("tcp_bulk.copy_reduction", 5.0),
      });
}

// Cost of the fault-injection subsystem when it is switched off.
//
// The FaultInjector is designed so a disabled stage (empty FaultPlan) is a
// zero-draw pass-through: it must neither perturb results (bit-identity)
// nor cost measurable time on the experiment hot path. Two sections:
//
//   1. Pipeline micro-benchmark: packets through an empty-plan injector vs
//      a direct sink call, ns/packet.
//   2. Experiment macro-benchmark: every method on one case, baseline tree
//      vs the same tree with inactive injectors spliced into both
//      directions. Every sample must be bit-identical (the gate), and
//      wall-clock overhead (best-of-R) should stay under 1% (a shape check).
//
// Emits BENCH_fault_overhead.json (gates[] included) in the working
// directory; exits non-zero when the gate fails.
//
//   $ fault_overhead [--runs=N]   (default 20 runs per cell)
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <vector>

#include "bench_util.h"
#include "net/fault.h"
#include "sim/simulation.h"

using namespace bnm;

namespace {

using Clock = std::chrono::steady_clock;

double ms_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double, std::milli>(b - a).count();
}

struct MicroTimings {
  std::size_t packets = 0;
  double direct_ns = 0;    ///< per packet, sink called directly
  double disabled_ns = 0;  ///< per packet, through an empty-plan injector
  double active_ns = 0;    ///< per packet, through a lossy injector
};

struct CountSink final : net::PacketSink {
  std::uint64_t count = 0;
  void handle_packet(net::Packet) override { ++count; }
};

net::Packet make_packet(std::uint64_t id) {
  net::Packet p;
  p.id = id;
  p.protocol = net::Protocol::kUdp;
  p.src = {net::IpAddress{10, 0, 0, 1}, 1111};
  p.dst = {net::IpAddress{10, 0, 0, 2}, 2222};
  p.payload = net::to_bytes("fault-overhead-probe");
  return p;
}

MicroTimings bench_micro() {
  MicroTimings t;
  constexpr std::size_t kPackets = 2000000;
  t.packets = kPackets;

  CountSink sink;
  {
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kPackets; ++i) {
      sink.handle_packet(make_packet(i));
    }
    const auto b = Clock::now();
    t.direct_ns = ms_between(a, b) * 1e6 / kPackets;
  }

  sim::Simulation sim{1};
  net::FaultInjector disabled{sim, net::FaultPlan{}};
  disabled.set_output(&sink);
  {
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kPackets; ++i) {
      disabled.handle_packet(make_packet(i));
    }
    const auto b = Clock::now();
    t.disabled_ns = ms_between(a, b) * 1e6 / kPackets;
  }

  net::FaultPlan lossy;
  lossy.loss_probability = 0.1;
  net::FaultInjector active{sim, lossy};
  active.set_output(&sink);
  {
    const auto a = Clock::now();
    for (std::size_t i = 0; i < kPackets; ++i) {
      active.handle_packet(make_packet(i));
    }
    const auto b = Clock::now();
    t.active_ns = ms_between(a, b) * 1e6 / kPackets;
  }

  std::printf("pipeline stage: %zu packets\n", t.packets);
  std::printf("  direct sink call   ... %8.1f ns/packet\n", t.direct_ns);
  std::printf("  disabled injector  ... %8.1f ns/packet\n", t.disabled_ns);
  std::printf("  10%% loss injector  ... %8.1f ns/packet\n", t.active_ns);
  return t;
}

struct MacroTimings {
  std::size_t cells = 0;
  int runs = 0;
  int reps = 0;
  double baseline_ms = 0;  ///< best-of-reps, no injector objects at all
  double disabled_ms = 0;  ///< best-of-reps, inactive injectors spliced in
  bool identical = true;
  double overhead_percent() const {
    return baseline_ms > 0 ? (disabled_ms / baseline_ms - 1.0) * 100.0 : 0.0;
  }
};

std::vector<core::ExperimentConfig> method_cells(int runs, bool staged) {
  std::vector<core::ExperimentConfig> cells;
  for (const auto kind : browser::all_probe_kinds()) {
    core::ExperimentConfig cfg;
    cfg.browser = browser::BrowserId::kChrome;
    cfg.os = browser::OsId::kUbuntu;
    cfg.kind = kind;
    cfg.runs = runs;
    if (staged) {
      // Inactive stages in both directions: the hot path now crosses two
      // extra PacketSink hops per packet, with every knob off.
      cfg.testbed.faults_to_server = net::FaultPlan{};
      cfg.testbed.faults_from_server = net::FaultPlan{};
    }
    cells.push_back(cfg);
  }
  return cells;
}

bool same_samples(const core::OverheadSeries& a, const core::OverheadSeries& b) {
  if (a.failures != b.failures || a.samples.size() != b.samples.size()) {
    return false;
  }
  for (std::size_t i = 0; i < a.samples.size(); ++i) {
    const auto& x = a.samples[i];
    const auto& y = b.samples[i];
    if (x.d1_ms != y.d1_ms || x.d2_ms != y.d2_ms ||
        x.browser_rtt1_ms != y.browser_rtt1_ms ||
        x.browser_rtt2_ms != y.browser_rtt2_ms ||
        x.net_rtt1_ms != y.net_rtt1_ms || x.net_rtt2_ms != y.net_rtt2_ms ||
        x.connections_opened1 != y.connections_opened1 ||
        x.connections_opened2 != y.connections_opened2) {
      return false;
    }
  }
  return true;
}

MacroTimings bench_macro(int runs) {
  MacroTimings t;
  t.runs = runs;
  t.reps = 5;
  const auto plain_cells = method_cells(runs, /*staged=*/false);
  const auto staged_cells = method_cells(runs, /*staged=*/true);
  t.cells = plain_cells.size();

  std::printf("experiment hot path: %zu cells x %d runs, best of %d\n",
              t.cells, runs, t.reps);

  std::vector<core::OverheadSeries> plain, staged;
  double best_plain = 0, best_staged = 0;
  for (int rep = 0; rep < t.reps; ++rep) {
    const auto a = Clock::now();
    auto p = core::run_matrix(plain_cells, 1);
    const auto b = Clock::now();
    auto s = core::run_matrix(staged_cells, 1);
    const auto c = Clock::now();
    const double pm = ms_between(a, b), sm = ms_between(b, c);
    if (rep == 0 || pm < best_plain) best_plain = pm;
    if (rep == 0 || sm < best_staged) best_staged = sm;
    if (rep == 0) {
      plain = std::move(p);
      staged = std::move(s);
    }
    benchutil::progress_dot();
  }
  std::printf("\n");
  t.baseline_ms = best_plain;
  t.disabled_ms = best_staged;

  for (std::size_t i = 0; i < plain.size(); ++i) {
    if (!same_samples(plain[i], staged[i])) {
      t.identical = false;
      std::printf("  !! cell %zu (%s) differs with inactive injectors\n", i,
                  plain[i].method_name.c_str());
    }
  }

  std::printf("  baseline (no stages)     ... %8.1f ms\n", t.baseline_ms);
  std::printf("  disabled injectors       ... %8.1f ms   (%+.2f%%)\n",
              t.disabled_ms, t.overhead_percent());
  std::printf("  results bit-identical: %s\n", t.identical ? "yes" : "NO");
  return t;
}

benchutil::Json to_json(const MicroTimings& u, const MacroTimings& m) {
  using namespace benchutil;
  return obj({
      {"pipeline", obj({
                       {"packets", integer(u.packets)},
                       {"direct_ns_per_packet", num(u.direct_ns)},
                       {"disabled_ns_per_packet", num(u.disabled_ns)},
                       {"active_ns_per_packet", num(u.active_ns)},
                   })},
      {"experiment", obj({
                         {"cells", integer(m.cells)},
                         {"runs_per_cell", integer(m.runs)},
                         {"best_of", integer(m.reps)},
                         {"baseline_ms", num(m.baseline_ms)},
                         {"disabled_ms", num(m.disabled_ms)},
                         {"overhead_percent", num(m.overhead_percent())},
                         {"identical", flag(m.identical)},
                     })},
  });
}

}  // namespace

int main(int argc, char** argv) {
  benchutil::options().runs = 20;  // overhead default; --runs=N overrides
  const auto& opts = benchutil::init(argc, argv);

  benchutil::banner("fault_overhead: disabled fault stages must be free");

  const MicroTimings u = bench_micro();
  std::printf("\n");
  const MacroTimings m = bench_macro(opts.runs);

  // Wall-clock stays a shape check: a best-of-5 A/B of two ~14 ms passes
  // cannot resolve 1% reliably on a shared host.
  benchutil::shape_check(m.overhead_percent() < 1.0,
                         "disabled injector wall-clock overhead < 1%");
  return benchutil::write_result("BENCH_fault_overhead.json", to_json(u, m),
                                 {benchutil::is_true("experiment.identical")});
}

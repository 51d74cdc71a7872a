#include <gtest/gtest.h>

#include <algorithm>

#include "net/capture.h"
#include "sim/simulation.h"
#include "report/sequence_render.h"
#include "sim/trace.h"

namespace bnm {
namespace {

// ------------------------------------------------------------- sim::Trace

TEST(Trace, DisabledByDefaultDropsRecords) {
  sim::Trace trace;
  trace.emit(sim::TimePoint::epoch(), "comp", "message");
  EXPECT_TRUE(trace.records().empty());
}

TEST(Trace, EnabledCollects) {
  sim::Trace trace;
  trace.set_enabled(true);
  trace.emit(sim::TimePoint::epoch(), "tcp", "SYN sent");
  trace.emit(sim::TimePoint::epoch() + sim::Duration::millis(1), "http", "GET");
  ASSERT_EQ(trace.records().size(), 2u);
  EXPECT_EQ(trace.records()[0].component, "tcp");
  EXPECT_EQ(trace.records()[1].message, "GET");
}

TEST(Trace, SinkMirrorsRecords) {
  sim::Trace trace;
  trace.set_enabled(true);
  int sunk = 0;
  trace.set_sink([&](const sim::TraceRecord&) { ++sunk; });
  trace.emit({}, "a", "1");
  trace.emit({}, "a", "2");
  EXPECT_EQ(sunk, 2);
}

TEST(Trace, ByComponentAndContains) {
  sim::Trace trace;
  trace.set_enabled(true);
  trace.emit({}, "tcp", "ESTABLISHED");
  trace.emit({}, "http", "200 OK");
  trace.emit({}, "tcp", "FIN_WAIT_1");
  EXPECT_EQ(trace.view_by_component("tcp").size(), 2u);
  EXPECT_TRUE(trace.contains("200 OK"));
  EXPECT_FALSE(trace.contains("404"));
  trace.clear();
  EXPECT_TRUE(trace.records().empty());
}

TEST(Trace, SimulationComponentsEmitWhenEnabled) {
  sim::Simulation sim{1};
  sim.trace().set_enabled(true);
  sim.trace().emit(sim.now(), "test", "hello");
  EXPECT_TRUE(sim.trace().contains("hello"));
}

// ------------------------------------------------- report::SequenceRenderer

/// One packet of the canonical exchange and the instant the tap sees it.
struct Row {
  bool outbound = false;
  net::Packet packet;
  double at_ms = 0;
};

Row make_row(bool outbound, net::TcpFlags flags, const std::string& payload,
             double at_ms) {
  Row row{outbound, {}, at_ms};
  row.packet.protocol = net::Protocol::kTcp;
  row.packet.flags = flags;
  row.packet.payload = net::to_bytes(payload);
  return row;
}

class SequenceFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    sim = std::make_unique<sim::Simulation>(1);
    cap = std::make_unique<net::PacketCapture>(*sim);
    // Reconstruct a canonical handshake + request/response + teardown.
    push(make_row(true, {.syn = true}, "", 0.0));
    push(make_row(false, {.syn = true, .ack = true}, "", 50.0));
    push(make_row(true, {.ack = true}, "", 50.1));
    push(make_row(true, {.ack = true, .psh = true}, "GET", 51.0));
    push(make_row(false, {.ack = true, .psh = true}, "pong", 101.0));
    push(make_row(true, {.ack = true, .fin = true}, "", 102.0));
  }

  void push(const Row& row) {
    // PacketCapture has no raw-record injection; emit via record() at the
    // right simulated instant.
    sim->scheduler().schedule_at(
        sim::TimePoint::epoch() + sim::Duration::from_millis_f(row.at_ms),
        [this, row] {
          cap->record(row.outbound ? net::CaptureDirection::kOutbound
                                   : net::CaptureDirection::kInbound,
                      row.packet);
        });
  }

  void run() { sim->scheduler().run(); }

  std::unique_ptr<sim::Simulation> sim;
  std::unique_ptr<net::PacketCapture> cap;
};

TEST_F(SequenceFixture, RendersArrowsBothDirections) {
  run();
  report::SequenceRenderer renderer;
  const std::string out = renderer.render(*cap);
  EXPECT_NE(out.find("SYN -"), std::string::npos);
  EXPECT_NE(out.find("SYN-ACK"), std::string::npos);
  EXPECT_NE(out.find("data 3B"), std::string::npos);
  EXPECT_NE(out.find("data 4B"), std::string::npos);
  EXPECT_NE(out.find("FIN"), std::string::npos);
  EXPECT_NE(out.find(">"), std::string::npos);
  EXPECT_NE(out.find("<"), std::string::npos);
}

TEST_F(SequenceFixture, HidePureAcks) {
  run();
  report::SequenceRenderer::Options opts;
  opts.hide_pure_acks = true;
  report::SequenceRenderer renderer{opts};
  const std::string out = renderer.render(*cap);
  // 6 records, one pure ACK -> 5 arrow lines + header.
  EXPECT_EQ(std::count(out.begin(), out.end(), '\n'), 6);
}

TEST_F(SequenceFixture, RelativeTimestampsStartAtZero) {
  run();
  report::SequenceRenderer renderer;
  const std::string out = renderer.render(*cap);
  EXPECT_NE(out.find("+0.000ms"), std::string::npos);
  EXPECT_NE(out.find("+50.000ms"), std::string::npos);
}

TEST_F(SequenceFixture, LimitTruncates) {
  run();
  report::SequenceRenderer::Options opts;
  opts.limit = 2;
  report::SequenceRenderer renderer{opts};
  const std::string out = renderer.render(*cap);
  EXPECT_NE(out.find("truncated"), std::string::npos);
}

TEST(SequenceRendererEmpty, NoPackets) {
  sim::Simulation sim{2};
  net::PacketCapture cap{sim};
  report::SequenceRenderer renderer;
  EXPECT_NE(renderer.render(cap).find("no packets"), std::string::npos);
}

}  // namespace
}  // namespace bnm

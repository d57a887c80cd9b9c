// TraceWriter unit tests: line shape, call-order preservation, the fault
// lifecycle records, and the end-to-end trace a faulted scenario emits.

#include "trace/trace.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "scenario/scenario.hpp"
#include "scenario/sweep.hpp"

namespace manet {
namespace {

std::string slurp(const std::string& path) {
  std::ifstream in(path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> out;
  std::istringstream ss(text);
  for (std::string line; std::getline(ss, line);) out.push_back(line);
  return out;
}

std::string temp_path(const char* name) { return testing::TempDir() + name; }

Packet data_packet(NodeId src, NodeId dst, std::size_t payload = 512) {
  Packet pkt;
  pkt.ip.src = src;
  pkt.ip.dst = dst;
  pkt.payload_bytes = payload;
  return pkt;
}

TEST(Trace, LineShapeMatchesFormat) {
  const std::string path = temp_path("trace_shape.tr");
  const Packet pkt = data_packet(1, 2);
  {
    TraceWriter tw(path);
    ASSERT_TRUE(tw.ok());
    tw.record('s', milliseconds(1500), 3, pkt);
  }
  char expected[160];
  std::snprintf(expected, sizeof(expected), "s 1.500000000 _3_ RTR %llu cbr %zu [1 -> 2]",
                static_cast<unsigned long long>(pkt.uid()), pkt.size_bytes());
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0], expected);
}

TEST(Trace, NoteIsAppendedAfterAddresses) {
  const std::string path = temp_path("trace_note.tr");
  {
    TraceWriter tw(path);
    tw.record('D', seconds(2), 7, data_packet(0, 9), "no-route");
  }
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 1u);
  EXPECT_EQ(lines[0].substr(0, 2), "D ");
  EXPECT_NE(lines[0].find("[0 -> 9] no-route"), std::string::npos);
}

TEST(Trace, RecordsPreserveCallOrderAndCount) {
  const std::string path = temp_path("trace_order.tr");
  const char events[] = {'s', 'f', 'r', 'D'};
  {
    TraceWriter tw(path);
    for (std::size_t i = 0; i < std::size(events); ++i) {
      tw.record(events[i], seconds(static_cast<std::int64_t>(i)), static_cast<NodeId>(i),
                data_packet(0, 1));
    }
    EXPECT_EQ(tw.lines(), std::size(events));
    tw.flush();
    // flush() makes the lines visible before the writer is destroyed.
    EXPECT_EQ(lines_of(slurp(path)).size(), std::size(events));
  }
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), std::size(events));
  for (std::size_t i = 0; i < lines.size(); ++i) EXPECT_EQ(lines[i][0], events[i]);
}

TEST(Trace, TypeTagFollowsHeaders) {
  Packet data = data_packet(0, 1);
  EXPECT_STREQ(trace_type(data), "cbr");
  Packet arp;
  arp.kind = PacketKind::kArp;
  EXPECT_STREQ(trace_type(arp), "arp");
  Packet ctrl;
  ctrl.kind = PacketKind::kRoutingControl;
  EXPECT_STREQ(trace_type(ctrl), "rtr");
  Packet rts = data_packet(0, 1);
  rts.mac.type = MacFrameType::kRts;
  EXPECT_STREQ(trace_type(rts), "mac");
}

TEST(Trace, UnwritablePathIsNotOkAndSilentlyDiscards) {
  TraceWriter tw("/nonexistent-dir-for-trace-test/out.tr");
  EXPECT_FALSE(tw.ok());
  EXPECT_EQ(tw.error(), "No such file or directory");
  tw.record('s', seconds(1), 0, data_packet(0, 1));
  tw.record_fault(seconds(1), 0, "crash");
  tw.flush();
  EXPECT_EQ(tw.lines(), 0u);
}

// A scenario never runs untraced when a trace was asked for.
TEST(TraceDeathTest, ScenarioBuildAbortsOnUnopenablePath) {
  ScenarioConfig cfg;
  cfg.num_nodes = 4;
  cfg.trace_path = "/nonexistent-dir-for-trace-test/run.tr";
  EXPECT_DEATH(Scenario(cfg).build(),
               "trace: cannot open \"/nonexistent-dir-for-trace-test/run.tr\": No such file");
}

TEST(Trace, FaultRecordShapes) {
  const std::string path = temp_path("trace_fault.tr");
  {
    TraceWriter tw(path);
    tw.record_fault(milliseconds(12500), 4, "crash");
    tw.record_fault(seconds(13), kBroadcast, "partition-start x=500");
    EXPECT_EQ(tw.lines(), 2u);
  }
  const auto lines = lines_of(slurp(path));
  ASSERT_EQ(lines.size(), 2u);
  EXPECT_EQ(lines[0], "F 12.500000000 _4_ FLT crash");
  EXPECT_EQ(lines[1], "F 13.000000000 _*_ FLT partition-start x=500");
}

// One faulted scenario end to end: the trace must interleave packet records
// with the fault lifecycle — crash/restart lines per node, broadcast lines
// for the partition — and timestamps must be non-decreasing (the trace is
// written in event-execution order).
TEST(Trace, ScenarioEmitsFaultLifecycle) {
  const std::string path = temp_path("trace_scenario.tr");
  ScenarioConfig cfg;
  cfg.protocol = Protocol::kAodv;
  cfg.seed = 5;
  cfg.num_nodes = 14;
  cfg.area = {650.0, 650.0};
  cfg.v_max = 6.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(25);
  cfg.trace_path = path;
  cfg.fault.crash_rate = 1.0;
  cfg.fault.downtime_mean = seconds(5);
  cfg.fault.window_from = seconds(5);
  cfg.fault.partition = true;
  cfg.fault.partition_from = seconds(10);
  cfg.fault.partition_until = seconds(15);
  const auto r = Scenario::run_once(cfg);
  EXPECT_GT(r.crashes, 0u);

  const std::string text = slurp(path);
  EXPECT_NE(text.find(" FLT crash"), std::string::npos);
  EXPECT_NE(text.find(" FLT restart"), std::string::npos);
  EXPECT_NE(text.find("_*_ FLT partition-start"), std::string::npos);
  EXPECT_NE(text.find("_*_ FLT partition-end"), std::string::npos);
  EXPECT_NE(text.find("s "), std::string::npos);  // data still flows

  double prev = 0.0;
  std::size_t n = 0;
  for (const std::string& line : lines_of(text)) {
    double t = 0.0;
    ASSERT_EQ(std::sscanf(line.c_str() + 2, "%lf", &t), 1) << line;
    EXPECT_GE(t, prev) << "trace timestamps must be non-decreasing: " << line;
    prev = t;
    ++n;
  }
  EXPECT_GT(n, 100u);
}

ScenarioConfig small_config(Protocol protocol, const std::string& path) {
  ScenarioConfig cfg;
  cfg.protocol = protocol;
  cfg.seed = 3;
  cfg.num_nodes = 12;
  cfg.area = {600.0, 600.0};
  cfg.v_max = 5.0;
  cfg.num_connections = 3;
  cfg.duration = seconds(20);
  cfg.trace_path = path;
  return cfg;
}

/// "" when two traces are identical, else the first line where they differ.
std::string first_difference(const std::string& a, const std::string& b) {
  const auto la = lines_of(a);
  const auto lb = lines_of(b);
  for (std::size_t i = 0; i < std::max(la.size(), lb.size()); ++i) {
    const std::string x = i < la.size() ? la[i] : "<end>";
    const std::string y = i < lb.size() ? lb[i] : "<end>";
    if (x != y) return "line " + std::to_string(i + 1) + ": '" + x + "' vs '" + y + "'";
  }
  return "";
}

/// Uid column of the first application-data line of a trace (0 if none).
std::uint64_t first_data_uid(const std::string& text) {
  for (const std::string& line : lines_of(text)) {
    unsigned long long uid = 0;
    char type[8] = {};
    if (std::sscanf(line.c_str(), "%*c %*f %*s %*s %llu %7s", &uid, type) == 2 &&
        std::string(type) == "cbr") {
      return uid;
    }
  }
  return 0;
}

// A trace is a pure function of (scenario, seed). Packet uids come from the
// scenario's own counter, so neither a scenario that ran earlier in the
// process nor replications running concurrently on other sweep workers can
// shift them: the same traced cell yields the same bytes standalone, twice,
// and inside a sweep grid at 1 and at 4 threads.
TEST(Trace, TraceIsIndependentOfProcessHistoryAndSweepThreads) {
  const std::string standalone = temp_path("trace_det_standalone.tr");
  (void)Scenario::run_once(small_config(Protocol::kAodv, standalone));
  const std::string reference = slurp(standalone);
  ASSERT_GT(lines_of(reference).size(), 50u);
  (void)Scenario::run_once(small_config(Protocol::kAodv, standalone));
  EXPECT_EQ(first_difference(slurp(standalone), reference), "") << "second in-process run";

  // AODV stays silent until traffic starts, so the scenario's first data
  // packet is the first Packet it mints at all — whatever ran before it.
  EXPECT_EQ(first_data_uid(reference), 1u);

  for (const unsigned threads : {1u, 4u}) {
    const std::string in_sweep =
        temp_path(threads == 1 ? "trace_det_sweep1.tr" : "trace_det_sweep4.tr");
    // Untraced neighbours before and after the traced cell: at 1 thread they
    // run earlier on the same worker, at 4 they run concurrently with it.
    const std::vector<SweepCell> cells = {
        {"dsr", small_config(Protocol::kDsr, "")},
        {"olsr", small_config(Protocol::kOlsr, "")},
        {"traced", small_config(Protocol::kAodv, in_sweep)},
        {"dsdv", small_config(Protocol::kDsdv, "")},
    };
    (void)SweepRunner(1, threads).run(cells);
    EXPECT_EQ(first_difference(slurp(in_sweep), reference), "")
        << "sweep at " << threads << " thread(s)";
  }
}

}  // namespace
}  // namespace manet

#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include "scenario/experiment.hpp"
#include "scenario/sweep.hpp"

namespace manet {
namespace {

ScenarioConfig small_config(Protocol p, std::uint64_t seed = 7) {
  ScenarioConfig cfg;
  cfg.protocol = p;
  cfg.seed = seed;
  cfg.num_nodes = 15;
  cfg.area = {700.0, 700.0};
  cfg.v_max = 5.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(30);
  return cfg;
}

TEST(Scenario, ProtocolNames) {
  EXPECT_STREQ(to_string(Protocol::kAodv), "AODV");
  EXPECT_STREQ(to_string(Protocol::kDsr), "DSR");
  EXPECT_STREQ(to_string(Protocol::kCbrp), "CBRP");
  EXPECT_STREQ(to_string(Protocol::kDsdv), "DSDV");
  EXPECT_STREQ(to_string(Protocol::kOlsr), "OLSR");
}

TEST(Scenario, ParameterTableListsTableOne) {
  const ScenarioConfig cfg;
  const std::string t = cfg.parameter_table();
  EXPECT_NE(t.find("CBR/UDP"), std::string::npos);
  EXPECT_NE(t.find("1000 x 1000"), std::string::npos);
  EXPECT_NE(t.find("250"), std::string::npos);
  EXPECT_NE(t.find("512"), std::string::npos);
  EXPECT_NE(t.find("random waypoint"), std::string::npos);
}

TEST(Scenario, BuildCreatesRequestedNodes) {
  Scenario s(small_config(Protocol::kAodv));
  s.build();
  EXPECT_EQ(s.size(), 15u);
  EXPECT_STREQ(s.routing(0).name(), "AODV");
}

TEST(Scenario, MakeProtocolMatchesEnum) {
  for (const Protocol p : kAllProtocols) {
    Scenario s(small_config(p));
    s.build();
    EXPECT_STREQ(s.routing(0).name(), to_string(p));
  }
}

TEST(Scenario, RunProducesTraffic) {
  const auto r = Scenario::run_once(small_config(Protocol::kAodv));
  EXPECT_GT(r.data_originated, 0u);
  EXPECT_GT(r.data_delivered, 0u);
  EXPECT_GT(r.events, 1000u);
  EXPECT_GE(r.pdr, 0.0);
  EXPECT_LE(r.pdr, 1.0);
}

TEST(Scenario, SameSeedIsBitReproducible) {
  const auto a = Scenario::run_once(small_config(Protocol::kDsr));
  const auto b = Scenario::run_once(small_config(Protocol::kDsr));
  EXPECT_EQ(a.data_originated, b.data_originated);
  EXPECT_EQ(a.data_delivered, b.data_delivered);
  EXPECT_EQ(a.routing_tx, b.routing_tx);
  EXPECT_EQ(a.mac_ctrl_tx, b.mac_ctrl_tx);
  EXPECT_EQ(a.events, b.events);
  EXPECT_DOUBLE_EQ(a.delay_ms, b.delay_ms);
}

TEST(Scenario, DifferentSeedsDiffer) {
  const auto a = Scenario::run_once(small_config(Protocol::kAodv, 1));
  const auto b = Scenario::run_once(small_config(Protocol::kAodv, 2));
  EXPECT_NE(a.events, b.events);
}

TEST(Scenario, SameSeedSameTrafficAcrossProtocols) {
  // Variance reduction: the workload (packets originated) is identical for
  // every protocol under the same seed — only treatment differs.
  const auto a = Scenario::run_once(small_config(Protocol::kAodv));
  const auto d = Scenario::run_once(small_config(Protocol::kDsdv));
  EXPECT_EQ(a.data_originated, d.data_originated);
}

TEST(Scenario, StaticNodesSupported) {
  auto cfg = small_config(Protocol::kOlsr);
  cfg.static_nodes = true;
  const auto r = Scenario::run_once(cfg);
  EXPECT_GT(r.data_originated, 0u);
}

/// Aggregate of a one-cell sweep: `seeds` replications of `cfg`.
Aggregate run_cell(const ScenarioConfig& cfg, int seeds, unsigned threads) {
  return SweepRunner(seeds, threads).run({SweepCell{"cell", cfg}}).cells.front().aggregate;
}

TEST(Experiment, AggregatesSeeds) {
  const auto agg = run_cell(small_config(Protocol::kAodv), /*seeds=*/3, /*threads=*/2);
  EXPECT_EQ(agg.replications, 3);
  EXPECT_GT(agg.pdr.mean, 0.0);
  EXPECT_LE(agg.pdr.mean, 1.0);
  EXPECT_GE(agg.pdr.se, 0.0);
  EXPECT_GT(agg.total_events, 0u);
}

TEST(Experiment, SingleSeedHasZeroStderr) {
  const auto agg = run_cell(small_config(Protocol::kDsdv), 1, 1);
  EXPECT_DOUBLE_EQ(agg.pdr.se, 0.0);
}

TEST(Scenario, ConnectivityOracleBoundsWellConnectedStaticNet) {
  // A dense static network is fully connected: the oracle reads 1.0 and the
  // (reliable unicast) protocols approach it.
  auto cfg = small_config(Protocol::kAodv);
  cfg.static_nodes = true;
  cfg.num_nodes = 25;
  cfg.area = {400.0, 400.0};  // everyone within ~2 hops
  const auto r = Scenario::run_once(cfg);
  EXPECT_DOUBLE_EQ(r.connectivity, 1.0);
  EXPECT_GT(r.pdr, 0.9);
}

TEST(Scenario, ConnectivityOracleSeesPartitions) {
  // Sparse static network: some flows are physically unreachable; the
  // oracle must report < 1 and PDR cannot exceed it (plus sampling slack).
  auto cfg = small_config(Protocol::kAodv, /*seed=*/3);
  cfg.static_nodes = true;
  cfg.num_nodes = 10;
  cfg.area = {2000.0, 2000.0};  // almost certainly partitioned
  const auto r = Scenario::run_once(cfg);
  EXPECT_LT(r.connectivity, 1.0);
  EXPECT_LE(r.pdr, r.connectivity + 0.05);
}

TEST(Scenario, ConnectivityMeasurementCanBeDisabled) {
  auto cfg = small_config(Protocol::kDsdv);
  cfg.measure_connectivity = false;
  const auto r = Scenario::run_once(cfg);
  EXPECT_DOUBLE_EQ(r.connectivity, 1.0);
}

}  // namespace
}  // namespace manet

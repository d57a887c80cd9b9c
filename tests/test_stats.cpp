#include "stats/stats.hpp"

#include <gtest/gtest.h>

#include <cstdint>

namespace manet {
namespace {

TEST(Stats, FreshCollectorIsClean) {
  StatsCollector s;
  EXPECT_EQ(s.data_originated(), 0u);
  EXPECT_EQ(s.data_delivered(), 0u);
  EXPECT_DOUBLE_EQ(s.pdr(), 1.0);  // nothing sent -> vacuous success
  EXPECT_DOUBLE_EQ(s.avg_delay_s(), 0.0);
  EXPECT_DOUBLE_EQ(s.nrl(), 0.0);
  EXPECT_DOUBLE_EQ(s.nml(), 0.0);
  EXPECT_EQ(s.total_drops(), 0u);
}

TEST(Stats, Pdr) {
  StatsCollector s;
  for (int i = 0; i < 10; ++i) s.on_data_originated();
  for (int i = 0; i < 7; ++i) s.on_data_delivered(milliseconds(10), 512, 2);
  EXPECT_DOUBLE_EQ(s.pdr(), 0.7);
}

TEST(Stats, AvgDelayAndHops) {
  StatsCollector s;
  s.on_data_delivered(milliseconds(10), 512, 1);
  s.on_data_delivered(milliseconds(30), 512, 3);
  EXPECT_DOUBLE_EQ(s.avg_delay_s(), 0.020);
  EXPECT_DOUBLE_EQ(s.avg_hops(), 2.0);
}

TEST(Stats, NrlCountsPerTransmission) {
  StatsCollector s;
  s.on_data_originated();
  s.on_data_delivered(milliseconds(1), 512, 1);
  for (int i = 0; i < 6; ++i) s.on_routing_tx(24);
  EXPECT_DOUBLE_EQ(s.nrl(), 6.0);
  EXPECT_EQ(s.routing_bytes(), 6u * 24u);
}

TEST(Stats, NrlFiniteWithZeroDelivered) {
  StatsCollector s;
  s.on_data_originated();
  s.on_routing_tx(24);
  EXPECT_DOUBLE_EQ(s.nrl(), 1.0);  // normalized by 1
}

TEST(Stats, NmlSumsAllControl) {
  StatsCollector s;
  s.on_data_delivered(milliseconds(1), 512, 1);
  s.on_routing_tx(24);   // 1
  s.on_mac_ctrl_tx();    // RTS
  s.on_mac_ctrl_tx();    // CTS
  s.on_mac_ctrl_tx();    // ACK
  s.on_arp_tx();         // ARP
  EXPECT_DOUBLE_EQ(s.nml(), 5.0);
}

TEST(Stats, Throughput) {
  StatsCollector s;
  // 100 packets x 512 B over 10 s = 40.96 kbit/s.
  for (int i = 0; i < 100; ++i) s.on_data_delivered(milliseconds(5), 512, 1);
  EXPECT_NEAR(s.throughput_bps(seconds(10)), 40960.0, 1e-6);
  EXPECT_DOUBLE_EQ(s.throughput_bps(SimTime::zero()), 0.0);
}

TEST(Stats, DropAccounting) {
  StatsCollector s;
  s.on_data_dropped(DropReason::kIfqFull);
  s.on_data_dropped(DropReason::kIfqFull);
  s.on_data_dropped(DropReason::kNoRoute);
  EXPECT_EQ(s.drops(DropReason::kIfqFull), 2u);
  EXPECT_EQ(s.drops(DropReason::kNoRoute), 1u);
  EXPECT_EQ(s.drops(DropReason::kTtlExpired), 0u);
  EXPECT_EQ(s.total_drops(), 3u);
}

TEST(Stats, DropReasonNames) {
  for (int i = 0; i < static_cast<int>(DropReason::kCount_); ++i) {
    const char* name = to_string(static_cast<DropReason>(i));
    EXPECT_NE(name, nullptr);
    EXPECT_STRNE(name, "?");
  }
}

TEST(Stats, PerFlowBreakdown) {
  StatsCollector s;
  s.on_data_originated(1);
  s.on_data_originated(1);
  s.on_data_originated(2);
  s.on_data_delivered(milliseconds(10), 512, 1, 1);
  s.on_data_delivered(milliseconds(30), 512, 2, 2);
  const auto f1 = s.flow(1);
  EXPECT_EQ(f1.originated, 2u);
  EXPECT_EQ(f1.delivered, 1u);
  EXPECT_DOUBLE_EQ(f1.pdr(), 0.5);
  EXPECT_DOUBLE_EQ(f1.avg_delay_s(), 0.010);
  const auto f2 = s.flow(2);
  EXPECT_DOUBLE_EQ(f2.pdr(), 1.0);
  EXPECT_DOUBLE_EQ(f2.avg_delay_s(), 0.030);
  // Unknown flow: clean zeros.
  EXPECT_EQ(s.flow(9).originated, 0u);
  EXPECT_DOUBLE_EQ(s.flow(9).pdr(), 1.0);
  // Enumeration sorted by id, consistent with the global counters.
  const auto all = s.flows();
  ASSERT_EQ(all.size(), 2u);
  EXPECT_EQ(all[0].first, 1u);
  EXPECT_EQ(all[1].first, 2u);
  std::uint64_t sum_orig = 0, sum_del = 0;
  for (const auto& [id, f] : all) {
    sum_orig += f.originated;
    sum_del += f.delivered;
  }
  EXPECT_EQ(sum_orig, s.data_originated());
  EXPECT_EQ(sum_del, s.data_delivered());
}

TEST(Stats, SummaryListsPerFlowCounts) {
  StatsCollector s;
  s.on_data_originated(3);
  s.on_data_delivered(milliseconds(5), 512, 1, 3);
  const std::string text = s.summary(seconds(10));
  EXPECT_NE(text.find("per-flow"), std::string::npos);
  EXPECT_NE(text.find("#3=1/1"), std::string::npos);
}

TEST(Stats, SummaryMentionsKeyNumbers) {
  StatsCollector s;
  s.on_data_originated();
  s.on_data_delivered(milliseconds(10), 512, 2);
  s.on_data_dropped(DropReason::kNoRoute);
  const std::string text = s.summary(seconds(10));
  EXPECT_NE(text.find("PDR"), std::string::npos);
  EXPECT_NE(text.find("no-route"), std::string::npos);
}

// Carrier-only rx energy is booked at the arrival's start but summed in at
// its end key, interleaved with the energy of decodable arrivals booked at
// their end events: the total must be bit-equal to summing every arrival in
// end-key order, even for values whose sum depends on the order.
TEST(Stats, DeferredRxEnergySettlesInEndKeyOrder) {
  const SimTime t0 = milliseconds(1);
  const SimTime t1 = milliseconds(2);
  const SimTime horizon = milliseconds(3);
  StatsCollector st;
  // Deferred in start order; their end keys interleave differently.
  st.defer_rx_energy({t1, 7}, 1e16);
  st.defer_rx_energy({t0, 9}, 1.0);
  st.defer_rx_energy({t1, 3}, 1.0);
  st.defer_rx_energy({horizon + nanoseconds(1), 2}, 5.0);  // ends after the horizon
  st.defer_rx_energy({horizon, 8}, 0.1);
  st.on_rx_energy({t1, 5}, -1e16);  // a decodable arrival's own end event
  st.settle_rx_energy({horizon, UINT64_MAX});

  // By end key: (t0,9) 1.0, (t1,3) 1.0, (t1,5) -1e16, (t1,7) 1e16, (horizon,8) 0.1.
  const double in_key_order[] = {1.0, 1.0, -1e16, 1e16, 0.1};
  double expect = 0.0;
  for (const double j : in_key_order) expect += j;
  EXPECT_EQ(st.energy_rx_j(), expect);  // exact: same additions, same order
  // Non-vacuous: start order would round differently.
  const double in_start_order[] = {1e16, 1.0, 1.0, 0.1, -1e16};
  double other = 0.0;
  for (const double j : in_start_order) other += j;
  EXPECT_NE(other, expect);
}

}  // namespace
}  // namespace manet

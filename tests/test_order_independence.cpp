// Hash-order independence regression test.
//
// PR 2 replaced hash-order-sensitive containers (CBRP neighbour/route
// tables, ARP cache/pending queue, Wi-Fi dedup table) with ordered
// equivalents. Those sites were audited as order-independent — sorted
// copies, min-selects, or pure keyed lookups — so the swap must not change
// behaviour at all. This test pins full per-seed metric fingerprints
// captured immediately BEFORE the container swap; if any conversion (or a
// future "harmless" container change) perturbs a single event, the pinned
// statistics or event counts diverge and this fails. The event counts are
// pinned apart from the statistics: a kernel change that does the same work
// in fewer events moves only them.
//
// Regenerate after an intentional behaviour change:
//   MANET_PRINT_GOLDENS=1 ./build/tests/test_order_independence
// and paste the printed table over kGoldens below.

#include "scenario/scenario.hpp"

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "testutil.hpp"

namespace manet {
namespace {

struct Case {
  Protocol protocol;
  std::uint64_t seed;
};

constexpr Case kCases[] = {
    {Protocol::kAodv, 1}, {Protocol::kDsr, 1},  {Protocol::kCbrp, 1}, {Protocol::kCbrp, 2},
    {Protocol::kDsdv, 1}, {Protocol::kOlsr, 1}, {Protocol::kLar, 1}, {Protocol::kTora, 1},
};

ScenarioConfig config_for(const Case& c) {
  ScenarioConfig cfg;
  cfg.protocol = c.protocol;
  cfg.seed = c.seed;
  cfg.num_nodes = 14;
  cfg.area = {650.0, 650.0};
  cfg.v_max = 6.0;
  cfg.num_connections = 4;
  cfg.duration = seconds(25);
  return cfg;
}

/// Every statistic a run produces, as one exact-match string, plus its event
/// count. Counters are exact integers; double-valued metrics are rendered
/// with %.12g, which distinguishes any behavioural change while tolerating
/// sub-ULP printing differences across libcs.
test::Fingerprint fingerprint(const Case& c) {
  const auto r = Scenario::run_once(config_for(c));
  char buf[256];
  std::snprintf(buf, sizeof(buf),
                "%s seed=%llu orig=%llu deliv=%llu rtx=%llu mac=%llu "
                "pdr=%.12g delay=%.12g nrl=%.12g hops=%.12g",
                to_string(c.protocol), static_cast<unsigned long long>(c.seed),
                static_cast<unsigned long long>(r.data_originated),
                static_cast<unsigned long long>(r.data_delivered),
                static_cast<unsigned long long>(r.routing_tx),
                static_cast<unsigned long long>(r.mac_ctrl_tx), r.pdr, r.delay_ms, r.nrl,
                r.avg_hops);
  return {buf, r.events};
}

const test::Golden kGoldens[] = {
    {"AODV seed=1 orig=155 deliv=154 rtx=32 mac=816 pdr=0.993548387097 delay=7.6273553961 nrl=0.207792207792 hops=1.65584415584", 24843},
    {"DSR seed=1 orig=155 deliv=155 rtx=36 mac=824 pdr=1 delay=6.59044171613 nrl=0.232258064516 hops=1.66451612903", 24812},
    {"CBRP seed=1 orig=155 deliv=154 rtx=203 mac=911 pdr=0.993548387097 delay=7.21354788312 nrl=1.31818181818 hops=1.83766233766", 32523},
    {"CBRP seed=2 orig=144 deliv=144 rtx=208 mac=1051 pdr=1 delay=11.3331642083 nrl=1.44444444444 hops=2.27777777778", 31665},
    {"DSDV seed=1 orig=155 deliv=155 rtx=471 mac=821 pdr=1 delay=9.90606171613 nrl=3.03870967742 hops=1.67741935484", 36401},
    {"OLSR seed=1 orig=155 deliv=155 rtx=282 mac=800 pdr=1 delay=5.91669034194 nrl=1.81935483871 hops=1.66451612903", 30601},
    {"LAR seed=1 orig=155 deliv=154 rtx=58 mac=818 pdr=0.993548387097 delay=6.57177623377 nrl=0.376623376623 hops=1.65584415584", 25319},
    {"TORA seed=1 orig=155 deliv=126 rtx=420 mac=535 pdr=0.812903225806 delay=7.37855453175 nrl=3.33333333333 hops=1.35714285714", 26282},
};

TEST(OrderIndependence, PerSeedMetricsMatchPreConversionGoldens) {
  static_assert(std::size(kCases) == std::size(kGoldens));
  for (std::size_t i = 0; i < std::size(kCases); ++i) {
    test::expect_golden(fingerprint(kCases[i]), kGoldens[i],
                        "case " + std::to_string(i) +
                            ": container conversion changed simulation behaviour?");
  }
}

/// The same scenario run twice in-process must be bit-identical — catches
/// any residual global mutable state (a static RNG, a leaked cache).
TEST(OrderIndependence, RepeatRunIsBitIdentical) {
  const Case c{Protocol::kCbrp, 3};
  EXPECT_EQ(fingerprint(c), fingerprint(c));
}

}  // namespace
}  // namespace manet

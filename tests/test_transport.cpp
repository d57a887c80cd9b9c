// Behavioural pyramid for the reliable transport (src/transport).
//
// The layers, bottom-up:
//
//   1. Fuzz: a two-node net whose "routing" is a seeded chaos monkey
//      (drop/duplicate/delay) — against it, the receiver must deliver the
//      application stream exactly once, in order, with no aborts: the
//      hand-written oracle is simply the identity sequence 0..N-1.
//   2. Hand-computed fixtures: the RTO backoff ladder fires at exactly
//      t+100/300/700 ms and gives up at t+1500 ms; AIMD grows the window
//      +1/cwnd per ACKed segment to the cap and halves it per timeout;
//      Jacobson's first sample sets srtt = RTT, rttvar = RTT/2; Karn's rule
//      keeps retransmitted segments out of the estimator.
//   3. Closed-loop backpressure: a full send buffer refuses the offer and
//      consumes no sequence number.
//   4. Fault behaviour: crash-mid-flow cold-resets every flow while the
//      epoch counter survives, so the next incarnation outranks stale
//      segments still in flight; a crashed receiver converges via
//      abort + fresh epoch.
//   5. Goldens: every protocol's full-scenario fingerprint with transport
//      on is pinned byte-exact, so silent behaviour drift is caught.

#include "transport/transport.hpp"

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "core/rng.hpp"
#include "core/time.hpp"
#include "net/node.hpp"
#include "net/routing_api.hpp"
#include "scenario/builder.hpp"
#include "testutil.hpp"

namespace manet {
namespace {

using test::TestNet;

// ---------------------------------------------------------------------------
// Chaos harness: two nodes, adversarial "routing" in between
// ---------------------------------------------------------------------------

struct Chaos {
  double drop = 0.0;      ///< per-packet loss probability
  double dup = 0.0;       ///< per-packet duplication probability
  double delay_lo = 0.001;  ///< uniform one-way delay bounds (seconds)
  double delay_hi = 0.005;  ///< != delay_lo reorders packets
};

/// A RoutingProtocol that is really a chaos monkey: every packet (segment or
/// ACK) is independently dropped, duplicated, and delayed from a seeded
/// stream, then handed straight to the peer node's transport endpoint. This
/// isolates the transport's behaviour from any real routing dynamics.
class ChaosRouting final : public RoutingProtocol {
 public:
  ChaosRouting(Node& node, Chaos cfg, RngStream rng)
      : RoutingProtocol(node), cfg_(cfg), rng_(std::move(rng)) {}

  void set_peer(Node* peer) { peer_ = peer; }
  void set_chaos(Chaos cfg) { cfg_ = cfg; }

  void start() override {}
  void route_packet(Packet pkt) override {
    if (rng_.uniform() < cfg_.drop) return;
    deliver(pkt);
    if (rng_.uniform() < cfg_.dup) deliver(pkt);
  }
  void on_control(const Packet&, NodeId) override {}
  void on_node_restart() override {}
  [[nodiscard]] const char* name() const override { return "CHAOS"; }

 private:
  void deliver(const Packet& pkt) {
    Node* peer = peer_;
    const SimTime d = seconds_f(rng_.uniform(cfg_.delay_lo, cfg_.delay_hi));
    node_.sim().schedule(d, [peer, pkt] {
      // The channel never delivers to a crashed receiver; mirror that.
      if (peer == nullptr || peer->down() || peer->transport() == nullptr) return;
      if (pkt.transport.kind == SegKind::kAck) {
        peer->transport()->on_ack(pkt);
      } else {
        peer->transport()->on_segment(pkt);
      }
    });
  }

  Chaos cfg_;
  RngStream rng_;
  Node* peer_ = nullptr;
};

/// Two nodes with ReliableTransport endpoints wired over ChaosRouting.
/// Node 0 is the sender by convention; node 1 the receiver.
struct ChaosNet {
  ChaosNet(const Chaos& chaos, const TransportConfig& tcfg, std::uint64_t seed = 1)
      : net(test::line_positions(2, 100.0),
            [chaos, seed](Node& n, std::uint64_t) {
              return std::make_unique<ChaosRouting>(n, chaos,
                                                    RngStream(seed, "chaos", n.id()));
            }),
        tp0(std::make_unique<ReliableTransport>(net.node(0), tcfg, &monitor)),
        tp1(std::make_unique<ReliableTransport>(net.node(1), tcfg, &monitor)) {
    net.node(0).set_transport(tp0.get());
    net.node(1).set_transport(tp1.get());
    chaos_of(0).set_peer(&net.node(1));
    chaos_of(1).set_peer(&net.node(0));
    tp1->set_delivery_probe([this](const Packet& p) { delivered.push_back(p.app.seq); });
  }

  ChaosRouting& chaos_of(std::size_t i) {
    return static_cast<ChaosRouting&>(net.routing(i));
  }

  TestNet net;
  FlowMonitor monitor;
  std::unique_ptr<ReliableTransport> tp0;
  std::unique_ptr<ReliableTransport> tp1;
  std::vector<std::uint32_t> delivered;  ///< app seqs, in delivery order
};

/// Closed-loop application: offers app seqs 0..total-1 every `every`,
/// holding (and re-offering) the current seq whenever the buffer refuses it.
struct Driver {
  ReliableTransport& tp;
  Simulator& sim;
  std::uint32_t total;
  SimTime every;
  std::uint32_t flow = 1;
  std::uint32_t next = 0;

  void tick() {
    if (next >= total) return;
    if (tp.try_send(flow, /*dst=*/1, /*payload_bytes=*/512, next)) ++next;
    sim.schedule(every, [this] { tick(); });
  }
};

// ---------------------------------------------------------------------------
// 1. Fuzz vs the in-order oracle
// ---------------------------------------------------------------------------

TEST(TransportFuzz, ExactlyOnceInOrderUnderLossReorderDuplication) {
  const Chaos kConfigs[] = {
      {0.0, 0.0, 0.001, 0.005},   // reorder only
      {0.15, 0.0, 0.001, 0.005},  // loss + reorder
      {0.3, 0.2, 0.001, 0.008},   // heavy loss + duplication + reorder
      {0.0, 0.35, 0.001, 0.005},  // duplication storm
  };
  TransportConfig t;
  t.enabled = true;
  t.rto_initial = milliseconds(80);
  t.rto_min = milliseconds(20);
  t.rto_max = seconds(1);
  t.cwnd_max = 8;
  t.max_retx = 60;  // the fuzz must never abort: 0.3^61 is not a thing

  constexpr std::uint32_t kCount = 50;
  for (std::uint64_t seed = 1; seed <= 3; ++seed) {
    for (const Chaos& chaos : kConfigs) {
      ChaosNet h(chaos, t, seed);
      Driver app{*h.tp0, h.net.sim(), kCount, milliseconds(3)};
      app.tick();
      h.net.run_for(seconds(120));

      // The oracle: the app stream comes out the far end exactly once, in
      // order — regardless of what the chaos did to individual packets.
      ASSERT_EQ(h.delivered.size(), kCount)
          << "seed " << seed << " drop=" << chaos.drop << " dup=" << chaos.dup;
      for (std::uint32_t i = 0; i < kCount; ++i) EXPECT_EQ(h.delivered[i], i);
      EXPECT_EQ(h.tp0->aborts(), 0u);

      // Per-flow accounting agrees with the aggregate stats.
      const FlowRecord* fr = h.monitor.find(1);
      ASSERT_NE(fr, nullptr);
      EXPECT_EQ(fr->tx_packets, kCount);
      EXPECT_EQ(fr->rx_packets, kCount);
      EXPECT_EQ(fr->rx_bytes, kCount * 512u);
      EXPECT_EQ(fr->rx_bytes, h.net.stats().delivered_bytes());
      EXPECT_EQ(fr->src, 0u);
      EXPECT_EQ(fr->dst, 1u);
      if (chaos.drop > 0.0) {
        EXPECT_GT(fr->retransmissions, 0u);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// 2. Hand-computed fixtures
// ---------------------------------------------------------------------------

TEST(TransportRto, BackoffLadderFiresAt100_300_700AndAbortsAt1500ms) {
  // Blackhole link, rto_initial = 100 ms, max_retx = 3. The timer doubles
  // per backoff step, so from the transmission at t=0 the retransmissions
  // land at exactly t=100, 300, 700 ms and the 4th expiry at t=1500 ms
  // exceeds max_retx and aborts the incarnation.
  Chaos blackhole{1.0, 0.0, 0.001, 0.001};
  TransportConfig t;
  t.enabled = true;
  t.rto_initial = milliseconds(100);
  t.rto_min = milliseconds(50);
  t.rto_max = seconds(10);
  t.cwnd_init = 2;
  t.max_retx = 3;
  ChaosNet h(blackhole, t);

  ASSERT_TRUE(h.tp0->try_send(7, 1, 512, 0));
  auto v = h.tp0->sender_view(7);
  EXPECT_TRUE(v.exists);
  EXPECT_EQ(v.epoch, 1u);
  EXPECT_DOUBLE_EQ(v.cwnd, 2.0);

  h.net.run_for(milliseconds(150));  // past the 1st expiry at t=100
  v = h.tp0->sender_view(7);
  EXPECT_EQ(v.head_retx, 1u);
  EXPECT_EQ(v.backoff, 1u);
  EXPECT_DOUBLE_EQ(v.cwnd, 1.0);  // halved, floored at one segment

  h.net.run_for(milliseconds(200));  // t=350, past the 2nd expiry at t=300
  v = h.tp0->sender_view(7);
  EXPECT_EQ(v.head_retx, 2u);
  EXPECT_EQ(v.backoff, 2u);

  h.net.run_for(milliseconds(400));  // t=750, past the 3rd expiry at t=700
  v = h.tp0->sender_view(7);
  EXPECT_EQ(v.head_retx, 3u);
  EXPECT_EQ(v.backoff, 3u);

  h.net.run_for(milliseconds(800));  // t=1550, past the give-up at t=1500
  EXPECT_FALSE(h.tp0->sender_view(7).exists);
  EXPECT_EQ(h.tp0->sender_flow_count(), 0u);
  EXPECT_EQ(h.tp0->aborts(), 1u);
  EXPECT_EQ(h.net.stats().drops(DropReason::kTransportGiveUp), 1u);
  EXPECT_TRUE(h.delivered.empty());

  // The next offer starts a fresh, strictly higher incarnation.
  ASSERT_TRUE(h.tp0->try_send(7, 1, 512, 1));
  EXPECT_EQ(h.tp0->sender_view(7).epoch, 2u);
}

TEST(TransportCwnd, AimdGrowsPerAckToTheCapAndHalvesPerTimeout) {
  // Fixed 2 ms one-way delay; cwnd_init 2, cap 3. Per ACKed segment the
  // window grows +1/cwnd: 2 -> 2.5 -> 2.9 -> cap 3.0. A blackhole phase then
  // halves it per timeout: 3 -> 1.5 -> 1 (floor). Karn: nothing sampled off
  // the retransmitted recovery, so srtt is bit-identical across the outage.
  Chaos clean{0.0, 0.0, 0.002, 0.002};
  TransportConfig t;
  t.enabled = true;
  t.rto_initial = milliseconds(100);
  t.rto_min = milliseconds(50);
  t.rto_max = seconds(2);
  t.cwnd_init = 2;
  t.cwnd_max = 3;
  ChaosNet h(clean, t);

  for (std::uint32_t s = 0; s < 6; ++s) ASSERT_TRUE(h.tp0->try_send(4, 1, 256, s));
  auto v = h.tp0->sender_view(4);
  EXPECT_EQ(v.inflight, 2u);  // cwnd_init segments on the wire
  EXPECT_EQ(v.queued, 6u);

  // t=5 ms: exactly the first two ACKs (sent at 2 ms, arriving at 4 ms)
  // have been processed — two additive increases: 2 + 1/2 + 1/2.5.
  h.net.run_for(milliseconds(5));
  EXPECT_DOUBLE_EQ(h.tp0->sender_view(4).cwnd, 2.0 + 1.0 / 2.0 + 1.0 / 2.5);

  h.net.run_for(milliseconds(20));  // drain the rest
  v = h.tp0->sender_view(4);
  EXPECT_EQ(h.delivered.size(), 6u);
  EXPECT_DOUBLE_EQ(v.cwnd, 3.0);  // additive increase stopped at the cap
  EXPECT_EQ(v.queued, 0u);
  EXPECT_GT(v.srtt_s, 0.0);
  const double srtt_before = v.srtt_s;

  // Blackhole: two fresh segments on the wire, every copy lost. srtt ~ 4 ms
  // keeps the estimator-derived RTO at the 50 ms floor, so the expiries land
  // +50/+100/+200 ms after the transmissions.
  h.chaos_of(0).set_chaos({1.0, 0.0, 0.002, 0.002});
  ASSERT_TRUE(h.tp0->try_send(4, 1, 256, 6));
  ASSERT_TRUE(h.tp0->try_send(4, 1, 256, 7));
  EXPECT_EQ(h.tp0->sender_view(4).inflight, 2u);
  h.net.run_for(milliseconds(400));
  v = h.tp0->sender_view(4);
  EXPECT_EQ(v.head_retx, 3u);
  EXPECT_EQ(v.backoff, 3u);
  EXPECT_DOUBLE_EQ(v.cwnd, 1.0);  // 3 -> 1.5 -> 1 -> 1
  EXPECT_DOUBLE_EQ(v.srtt_s, srtt_before);  // no samples while everything is lost

  // Reopen the link: the RTO ladder retransmits the head, recovery delivers
  // both segments — and Karn keeps both retransmitted RTTs out of srtt.
  h.chaos_of(0).set_chaos(clean);
  h.net.run_for(seconds(2));
  v = h.tp0->sender_view(4);
  ASSERT_EQ(h.delivered.size(), 8u);
  for (std::uint32_t i = 0; i < 8; ++i) EXPECT_EQ(h.delivered[i], i);
  EXPECT_EQ(v.queued, 0u);
  EXPECT_EQ(v.backoff, 0u);  // forward progress cleared the ladder
  EXPECT_DOUBLE_EQ(v.srtt_s, srtt_before);
  EXPECT_EQ(h.tp0->aborts(), 0u);
  // The recovery is fully deterministic: 3 blackhole retransmissions of
  // seg 6, one more that got through, then one for seg 7.
  ASSERT_NE(h.monitor.find(4), nullptr);
  EXPECT_EQ(h.monitor.find(4)->retransmissions, 5u);
}

TEST(TransportRtt, JacobsonFirstSampleSetsSrttAndRttvar) {
  // Fixed 3 ms one-way delay -> the first RTT sample is exactly 6 ms:
  // srtt = 6 ms, rttvar = 3 ms, rto = srtt + 4*rttvar = 18 ms (rto_min set
  // low enough not to clamp). A second identical sample leaves srtt alone
  // and decays rttvar by 1/4: rto = 6 + 4*2.25 = 15 ms.
  Chaos clean{0.0, 0.0, 0.003, 0.003};
  TransportConfig t;
  t.enabled = true;
  t.rto_min = milliseconds(1);
  ChaosNet h(clean, t);

  ASSERT_TRUE(h.tp0->try_send(2, 1, 512, 0));
  h.net.run_for(milliseconds(20));
  auto v = h.tp0->sender_view(2);
  EXPECT_DOUBLE_EQ(v.srtt_s, 0.006);
  EXPECT_NEAR(v.rto.sec(), 0.018, 1e-6);

  ASSERT_TRUE(h.tp0->try_send(2, 1, 512, 1));
  h.net.run_for(milliseconds(20));
  v = h.tp0->sender_view(2);
  EXPECT_DOUBLE_EQ(v.srtt_s, 0.006);
  EXPECT_NEAR(v.rto.sec(), 0.015, 1e-6);
  EXPECT_EQ(h.delivered.size(), 2u);
}

// ---------------------------------------------------------------------------
// 3. Closed-loop backpressure
// ---------------------------------------------------------------------------

TEST(TransportBackpressure, FullBufferRefusesWithoutConsumingASequenceNumber) {
  Chaos blackhole{1.0, 0.0, 0.001, 0.001};
  TransportConfig t;
  t.enabled = true;
  t.rto_initial = seconds(5);  // keep the window stable while we probe it
  t.max_retx = 50;
  t.cwnd_init = 4;
  t.cwnd_max = 4;
  t.buffer_packets = 8;
  ChaosNet h(blackhole, t);

  for (std::uint32_t s = 0; s < 8; ++s) ASSERT_TRUE(h.tp0->try_send(9, 1, 512, s));
  auto v = h.tp0->sender_view(9);
  EXPECT_EQ(v.queued, 8u);
  EXPECT_EQ(v.snd_next, 8u);
  EXPECT_EQ(v.inflight, 4u);  // cwnd_max of it on the wire, the rest queued

  // The 9th offer is refused; nothing about the flow moves, so the app can
  // re-offer the same packet later without tearing a sequence gap.
  EXPECT_FALSE(h.tp0->try_send(9, 1, 512, 8));
  v = h.tp0->sender_view(9);
  EXPECT_EQ(v.queued, 8u);
  EXPECT_EQ(v.snd_next, 8u);
}

TEST(TransportSelfFlow, DegenerateSelfDestinationDeliversImmediately) {
  Chaos clean{0.0, 0.0, 0.001, 0.001};
  TransportConfig t;
  t.enabled = true;
  ChaosNet h(clean, t);
  std::vector<std::uint32_t> local;
  h.tp0->set_delivery_probe([&local](const Packet& p) { local.push_back(p.app.seq); });

  ASSERT_TRUE(h.tp0->try_send(3, /*dst=*/0, 512, 41));
  ASSERT_EQ(local.size(), 1u);
  EXPECT_EQ(local[0], 41u);
  EXPECT_EQ(h.tp0->sender_view(3).queued, 0u);  // nothing buffered or inflight
  const FlowRecord* fr = h.monitor.find(3);
  ASSERT_NE(fr, nullptr);
  EXPECT_EQ(fr->tx_packets, 1u);
  EXPECT_EQ(fr->rx_packets, 1u);
}

// ---------------------------------------------------------------------------
// 4. Crash-mid-flow: cold reset + surviving epoch counter
// ---------------------------------------------------------------------------

TEST(TransportRestart, SenderCrashMidFlowColdResetsButEpochCounterSurvives) {
  Chaos clean{0.0, 0.0, 0.002, 0.002};
  TransportConfig t;
  t.enabled = true;
  t.rto_min = milliseconds(50);
  t.cwnd_max = 8;
  ChaosNet h(clean, t);

  // A healthy first incarnation: 10 packets through, then 3 more offered
  // and immediately cut down by a crash with the ACKs still in flight.
  for (std::uint32_t s = 0; s < 10; ++s) ASSERT_TRUE(h.tp0->try_send(5, 1, 512, s));
  h.net.run_for(milliseconds(100));
  ASSERT_EQ(h.delivered.size(), 10u);
  EXPECT_EQ(h.tp0->sender_view(5).epoch, 1u);

  for (std::uint32_t s = 10; s < 13; ++s) ASSERT_TRUE(h.tp0->try_send(5, 1, 512, s));
  h.net.node(0).crash();
  h.net.run_for(milliseconds(100));  // in-flight epoch-1 segments drain to the sink
  ASSERT_EQ(h.delivered.size(), 13u);
  h.net.node(0).restart();

  // Cold reset: every flow gone — but the incarnation counter survived.
  EXPECT_EQ(h.tp0->sender_flow_count(), 0u);
  EXPECT_EQ(h.tp0->receiver_flow_count(), 0u);
  EXPECT_EQ(h.tp0->epoch_counter(), 1u);

  // The next incarnation outranks everything the old one left behind; the
  // receiver adopts it and resequences from zero.
  ASSERT_TRUE(h.tp0->try_send(5, 1, 512, 100));
  EXPECT_EQ(h.tp0->sender_view(5).epoch, 2u);
  h.net.run_for(milliseconds(100));
  ASSERT_EQ(h.delivered.size(), 14u);
  EXPECT_EQ(h.delivered.back(), 100u);
  const auto rv = h.tp1->receiver_view(5);
  EXPECT_TRUE(rv.exists);
  EXPECT_EQ(rv.epoch, 2u);
  EXPECT_EQ(rv.rcv_next, 1u);  // the new epoch restarted the sequence space
}

TEST(TransportRestart, ReceiverCrashConvergesViaAbortAndFreshEpoch) {
  Chaos clean{0.0, 0.0, 0.002, 0.002};
  TransportConfig t;
  t.enabled = true;
  t.rto_initial = milliseconds(60);
  t.rto_min = milliseconds(30);
  t.rto_max = milliseconds(250);
  t.max_retx = 2;  // give up fast: the convergence path under test
  ChaosNet h(clean, t);

  // 120 offers at 10 ms spacing: the stream straddles the whole outage and
  // keeps flowing well after recovery, so the tail rides a healthy epoch.
  Driver app{*h.tp0, h.net.sim(), /*total=*/120, milliseconds(10)};
  app.tick();
  h.net.run_for(milliseconds(500));
  const std::size_t before_crash = h.delivered.size();
  ASSERT_GT(before_crash, 0u);

  h.net.node(1).crash();
  h.net.run_for(milliseconds(300));
  h.net.node(1).restart();
  h.net.run_for(seconds(20));

  // The stalled incarnation aborted (possibly several times while the far
  // end was dark), a fresh epoch took over, and the tail of the stream made
  // it through: the last offered app seq is the last delivered one.
  EXPECT_GT(h.tp0->aborts(), 0u);
  EXPECT_GT(h.net.stats().drops(DropReason::kTransportGiveUp), 0u);
  ASSERT_FALSE(h.delivered.empty());
  EXPECT_EQ(h.delivered.back(), 119u);
  // Aborts lose packets (counted against PDR) but never break ordering or
  // deliver twice: the probe saw a strictly increasing app-seq sequence.
  for (std::size_t i = 1; i < h.delivered.size(); ++i) {
    EXPECT_LT(h.delivered[i - 1], h.delivered[i]);
  }
  EXPECT_LT(h.delivered.size(), 120u);  // the crash really cost something
  // Both ends agree on the surviving incarnation.
  EXPECT_EQ(h.tp1->receiver_view(1).epoch, h.tp0->sender_view(1).epoch);
  EXPECT_GT(h.tp0->sender_view(1).epoch, 1u);
}

// ---------------------------------------------------------------------------
// 5. Full-scenario goldens
// ---------------------------------------------------------------------------

TEST(TransportGolden, EveryProtocolPinnedWithTransportOn) {
  // 14 nodes, 650x650 m, 4 connections, 25 s, seed 1. The transport adds
  // cross-node feedback loops (ACKs, RTO timers, closed-loop sources); the
  // pinned fingerprints catch any drift in them.
  const struct {
    const char* protocol;
    const char* golden;
  } kGoldens[] = {
      {"AODV",
       "events=60675 orig=155 deliv=155 rtx=32 mac=1612 tretx=1 flows=4 "
       "pdr=1 delay=24.4912135355 nrl=0.206451612903 hops=1.66451612903 conn=1"},
      {"DSR",
       "events=60481 orig=155 deliv=155 rtx=36 mac=1612 tretx=0 flows=4 "
       "pdr=1 delay=6.65363146452 nrl=0.232258064516 hops=1.66451612903 conn=1"},
      {"CBRP",
       "events=71014 orig=155 deliv=155 rtx=233 mac=1735 tretx=0 flows=4 "
       "pdr=1 delay=6.29110536774 nrl=1.50322580645 hops=1.66451612903 conn=1"},
      {"DSDV",
       "events=74292 orig=155 deliv=155 rtx=464 mac=1622 tretx=0 flows=4 "
       "pdr=1 delay=6.1661884129 nrl=2.9935483871 hops=1.67741935484 conn=1"},
      {"OLSR",
       "events=67576 orig=155 deliv=155 rtx=282 mac=1591 tretx=0 flows=4 "
       "pdr=1 delay=5.99328171613 nrl=1.81935483871 hops=1.66451612903 conn=1"},
      {"LAR",
       "events=68359 orig=155 deliv=155 rtx=114 mac=1759 tretx=1 flows=4 "
       "pdr=1 delay=26.3854300194 nrl=0.735483870968 hops=1.85161290323 conn=1"},
      {"TORA",
       "events=74413 orig=155 deliv=155 rtx=489 mac=1600 tretx=1 flows=4 "
       "pdr=1 delay=25.1729141161 nrl=3.15483870968 hops=1.66451612903 conn=1"},
  };
  TransportConfig transport;
  transport.enabled = true;
  for (const auto& g : kGoldens) {
    const ScenarioResult r = ScenarioBuilder()
                                 .protocol(g.protocol)
                                 .seed(1)
                                 .nodes(14)
                                 .area(650.0, 650.0)
                                 .speed(0.1, 6.0)
                                 .connections(4)
                                 .duration(seconds(25))
                                 .transport(transport)
                                 .run();
    test::expect_golden(test::result_fingerprint(r), g.golden, g.protocol);
    // Closed-loop traffic really flowed through the transport.
    EXPECT_FALSE(r.flows.empty()) << g.protocol;
  }
}

}  // namespace
}  // namespace manet

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/simulator.hpp"
#include "mobility/static_mobility.hpp"
#include "phy/channel.hpp"
#include "phy/transceiver.hpp"

namespace manet {
namespace {

/// Records everything the PHY reports upward.
class RecordingListener : public PhyListener {
 public:
  void phy_busy_start() override { ++busy_starts; }
  void phy_busy_end() override { ++busy_ends; }
  void phy_rx(const Packet& f) override { frames.push_back(f); }

  int busy_starts = 0;
  int busy_ends = 0;
  std::vector<Packet> frames;
};

/// N static transceivers on a channel, with recording listeners subscribed
/// to busy/idle edges (as a contending MAC is).
struct PhyNet {
  explicit PhyNet(const std::vector<Vec2>& positions, PhyConfig cfg = {}) {
    channel = std::make_unique<Channel>(sim, cfg, Area{3000.0, 3000.0});
    for (std::size_t i = 0; i < positions.size(); ++i) {
      mobs.push_back(std::make_unique<StaticMobility>(positions[i]));
      trx.push_back(std::make_unique<Transceiver>(sim, cfg, static_cast<NodeId>(i)));
      listeners.push_back(std::make_unique<RecordingListener>());
      trx.back()->set_listener(listeners.back().get());
      trx.back()->listen_edges(true);
      channel->add(trx.back().get(), mobs.back().get());
    }
    channel->start();
  }

  Packet data_frame(NodeId src, NodeId dst, std::size_t payload = 100) {
    Packet p;
    p.kind = PacketKind::kData;
    p.mac.type = MacFrameType::kData;
    p.mac.src = src;
    p.mac.dst = dst;
    p.payload_bytes = payload;
    return p;
  }

  Simulator sim;
  std::unique_ptr<Channel> channel;
  std::vector<std::unique_ptr<StaticMobility>> mobs;
  std::vector<std::unique_ptr<Transceiver>> trx;
  std::vector<std::unique_ptr<RecordingListener>> listeners;
};

TEST(Phy, AirtimeMath) {
  PhyConfig cfg;  // 2 Mbit/s, 192 us preamble
  // 500 bytes = 4000 bits = 2 ms at 2 Mbit/s, plus preamble.
  EXPECT_EQ(cfg.airtime(500), microseconds(192) + milliseconds(2));
}

TEST(Phy, PropagationDelay) {
  PhyConfig cfg;
  EXPECT_EQ(cfg.propagation(300.0), microseconds(1));
  EXPECT_GT(cfg.max_propagation(), SimTime::zero());
}

TEST(Phy, InRangeReceiverGetsFrame) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  ASSERT_EQ(net.listeners[1]->frames.size(), 1u);
  EXPECT_EQ(net.listeners[1]->frames[0].mac.src, 0u);
}

TEST(Phy, CarrierOnlyBetweenRxAndCsRange) {
  PhyNet net({{0.0, 0.0}, {400.0, 0.0}});  // 400 m: beyond 250, inside 550
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  EXPECT_EQ(net.listeners[1]->busy_starts, 1);
  EXPECT_EQ(net.listeners[1]->busy_ends, 1);
}

TEST(Phy, BeyondCsRangeHearsNothing) {
  PhyNet net({{0.0, 0.0}, {600.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  EXPECT_EQ(net.listeners[1]->busy_starts, 0);
}

TEST(Phy, SenderSelfBusyDuringTransmit) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}});
  EXPECT_FALSE(net.trx[0]->medium_busy());
  net.trx[0]->transmit(net.data_frame(0, 1));
  EXPECT_TRUE(net.trx[0]->medium_busy());
  EXPECT_TRUE(net.trx[0]->transmitting());
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_FALSE(net.trx[0]->medium_busy());
}

TEST(Phy, FrameArrivesAfterPropagationDelay) {
  PhyNet net({{0.0, 0.0}, {240.0, 0.0}});  // 0.8 us propagation, within range
  const SimTime air = net.trx[0]->transmit(net.data_frame(0, 1));
  // The frame completes at air + 0.8 us at the receiver.
  net.sim.run_until(air);
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  net.sim.run_until(air + microseconds(2));
  EXPECT_EQ(net.listeners[1]->frames.size(), 1u);
}

TEST(Phy, OverlappingTransmissionsCollideAtReceiver) {
  // 0 and 2 both in range of 1 but out of range of each other.
  PhyNet net({{0.0, 0.0}, {240.0, 0.0}, {480.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.trx[2]->transmit(net.data_frame(2, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  EXPECT_EQ(net.trx[1]->frames_corrupted(), 2u);
}

TEST(Phy, StaggeredNonOverlappingFramesBothArrive) {
  PhyNet net({{0.0, 0.0}, {240.0, 0.0}, {480.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1, 50));
  const SimTime gap = net.channel->config().airtime(50 + kMacDataHeaderBytes +
                                                    kIpHeaderBytes + kUdpHeaderBytes) +
                      milliseconds(1);
  net.sim.schedule(gap, [&] { net.trx[2]->transmit(net.data_frame(2, 1, 50)); });
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_EQ(net.listeners[1]->frames.size(), 2u);
}

TEST(Phy, HalfDuplexReceiverLosesFrameWhileTransmitting) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1, 200));
  // Node 1 starts its own transmission while 0's frame is in flight.
  net.sim.schedule(microseconds(50), [&] { net.trx[1]->transmit(net.data_frame(1, 0, 10)); });
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
  EXPECT_EQ(net.trx[1]->frames_corrupted(), 1u);
  // Node 0 also loses 1's frame: it was transmitting when it started arriving.
  EXPECT_TRUE(net.listeners[0]->frames.empty());
}

TEST(Phy, InterferenceFromCarrierOnlyCorruptsFrame) {
  // 1 receives from 0 (in range); 2 is at 500 m from 1 — carrier only —
  // and transmits concurrently, destroying the frame.
  PhyNet net({{0.0, 0.0}, {240.0, 0.0}, {740.0, 0.0}});
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.trx[2]->transmit(net.data_frame(2, kBroadcast));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
}

TEST(Phy, BroadcastReachesAllInRange) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}, {0.0, 200.0}, {2000.0, 2000.0}});
  net.trx[0]->transmit(net.data_frame(0, kBroadcast));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_EQ(net.listeners[1]->frames.size(), 1u);
  EXPECT_EQ(net.listeners[2]->frames.size(), 1u);
  EXPECT_TRUE(net.listeners[3]->frames.empty());
}

// -- event-lean reception: carrier-only arrivals have no end event -----------

/// Records edges with their times; reception is driven directly (no channel).
class EdgeClock : public PhyListener {
 public:
  explicit EdgeClock(Simulator& sim) : sim_(sim) {}
  void phy_busy_start() override { starts.push_back(sim_.now()); }
  void phy_busy_end() override { ends.push_back(sim_.now()); }
  void phy_rx(const Packet& /*frame*/) override { ++frames; }

  std::vector<SimTime> starts;
  std::vector<SimTime> ends;
  int frames = 0;

 private:
  Simulator& sim_;
};

std::shared_ptr<const Packet> decodable() { return std::make_shared<const Packet>(); }

// A carrier ending in the same nanosecond a decodable frame starts: the
// carrier's end key is the seq reserved at its rx_start, so the frame is
// corrupted exactly when that seq is later than the frame's rx_start event —
// the tie an rx_end event at that key would have produced.
TEST(Phy, CarrierEndingAsFrameStartsCorruptsOnlyIfItsSeqIsLater) {
  const SimTime air = microseconds(100);
  {  // Carrier reserved first: its end precedes the frame's start.
    Simulator sim;
    Transceiver trx(sim, PhyConfig{}, 0);
    sim.schedule_at(SimTime::zero(), [&] {
      trx.rx_start(nullptr, air);
      sim.schedule_at(air, [&] { trx.rx_start(decodable(), air); });
    });
    sim.run_until(milliseconds(1));
    EXPECT_EQ(trx.frames_received(), 1u);
    EXPECT_EQ(trx.frames_corrupted(), 0u);
  }
  {  // Frame scheduled first: the carrier's end seq is later, so it overlaps.
    Simulator sim;
    Transceiver trx(sim, PhyConfig{}, 0);
    sim.schedule_at(air, [&] { trx.rx_start(decodable(), air); });
    sim.schedule_at(SimTime::zero(), [&] { trx.rx_start(nullptr, air); });
    sim.run_until(milliseconds(1));
    EXPECT_EQ(trx.frames_received(), 0u);
    EXPECT_EQ(trx.frames_corrupted(), 1u);
  }
}

TEST(Phy, MidCarrierSubscriberHearsTheCarriersEnd) {
  Simulator sim;
  Transceiver trx(sim, PhyConfig{}, 0);
  EdgeClock edges(sim);
  trx.set_listener(&edges);
  sim.schedule_at(SimTime::zero(), [&] { trx.rx_start(nullptr, microseconds(100)); });
  sim.schedule_at(microseconds(60), [&] { trx.rx_start(nullptr, microseconds(90)); });
  sim.schedule_at(microseconds(40), [&] {
    EXPECT_TRUE(trx.medium_busy());
    trx.listen_edges(true);
  });
  sim.run_until(milliseconds(1));
  // The busy edge came before the subscription; the idle edge fires at the
  // end of the carrier extended by the second arrival.
  EXPECT_TRUE(edges.starts.empty());
  EXPECT_EQ(edges.ends, (std::vector<SimTime>{microseconds(150)}));
  EXPECT_FALSE(trx.medium_busy());
  EXPECT_EQ(trx.idle_since(), microseconds(150));
}

TEST(Phy, UnsubscribingCancelsThePendingIdleEdge) {
  Simulator sim;
  Transceiver trx(sim, PhyConfig{}, 0);
  EdgeClock edges(sim);
  trx.set_listener(&edges);
  trx.listen_edges(true);
  sim.schedule_at(SimTime::zero(), [&] { trx.rx_start(nullptr, microseconds(100)); });
  sim.schedule_at(microseconds(50), [&] { trx.listen_edges(false); });
  const std::uint64_t ran = sim.run_until(milliseconds(1));
  EXPECT_EQ(edges.starts, (std::vector<SimTime>{SimTime::zero()}));
  EXPECT_TRUE(edges.ends.empty());
  EXPECT_EQ(ran, 2u) << "a carrier-only arrival costs one event, not two";
  // The idle clock still restarts at the carrier's end.
  EXPECT_EQ(trx.idle_since(), microseconds(100));
}

TEST(Phy, MovingNodeChangesConnectivity) {
  PhyNet net({{0.0, 0.0}, {200.0, 0.0}});
  net.mobs[1]->set_position({1000.0, 1000.0});
  net.sim.run_until(seconds(1));  // allow a refresh
  net.trx[0]->transmit(net.data_frame(0, 1));
  net.sim.run_until(net.sim.now() + seconds(30));
  EXPECT_TRUE(net.listeners[1]->frames.empty());
}

/// A routing payload the shared-frame test can mutate and observe.
struct Tag : RoutingPayloadBase<Tag> {
  int value = 0;
  [[nodiscard]] std::size_t size_bytes() const override { return 4; }
};

/// The Tag value a frame carries; -1 when it has none.
int tag_of(const Packet& p) {
  return p.routing ? dynamic_cast<const Tag&>(*p.routing.get()).value : -1;
}

/// Keeps a copy of every frame phy_rx hands over. With `rewrite_copy` it
/// also forwards the frame the way a relay does: copy, then rewrite the
/// routing payload in place.
class SharedFrameListener : public PhyListener {
 public:
  void phy_busy_start() override {}
  void phy_busy_end() override {}
  void phy_rx(const Packet& f) override {
    got.push_back(f);
    if (rewrite_copy) {
      Packet mine = f;
      dynamic_cast<Tag*>(mine.routing.mutate())->value = 99;
      forwarded.push_back(std::move(mine));
    }
  }

  bool rewrite_copy = false;
  std::vector<Packet> got;
  std::vector<Packet> forwarded;
};

// Reception builds no Packet: the channel makes one shared read-only copy
// per transmission and every receiver is handed that object at rx_end. Two
// probes minted around the whole exchange are therefore consecutive uids.
// A receiver that copies and rewrites its frame (copy-on-write) never
// disturbs what its siblings see, and corrupted or carrier-only arrivals
// deliver nothing.
TEST(Phy, ReceptionSharesOneFrameAndConstructsNoPacket) {
  // 0 sends. 1 (the relay), 2, 3 and 5 are in decode range; 4 sits between
  // rx and carrier-sense range (carrier only). 5 doubles as the interferer.
  const std::vector<Vec2> at = {{0.0, 0.0},    {100.0, 0.0}, {0.0, 200.0},
                                {-240.0, 0.0}, {400.0, 0.0}, {0.0, -150.0}};
  PhyNet net(at);
  std::vector<std::unique_ptr<SharedFrameListener>> ls;
  for (auto& trx : net.trx) {
    ls.push_back(std::make_unique<SharedFrameListener>());
    trx->set_listener(ls.back().get());
  }
  ls[1]->rewrite_copy = true;  // the nearest receiver: its rx_end comes first

  Packet frame = net.data_frame(0, kBroadcast);
  auto tag = std::make_unique<Tag>();
  tag->value = 7;
  frame.routing = std::move(tag);

  const Packet before;
  net.trx[0]->transmit(frame);
  net.sim.run_until(net.sim.now() + seconds(1));
  const Packet after;
  EXPECT_EQ(after.uid(), before.uid() + 1) << "reception constructed a Packet";

  // Checked after the run, so an in-place rewrite by any receiver would
  // show up in every sibling's copy, whichever order they received in.
  for (const NodeId id : {1u, 2u, 3u, 5u}) {
    ASSERT_EQ(ls[id]->got.size(), 1u) << "node " << id;
    const Packet& got = ls[id]->got[0];
    EXPECT_EQ(got.uid(), frame.uid()) << "node " << id;
    EXPECT_EQ(got.mac.src, 0u);
    EXPECT_EQ(got.mac.dst, kBroadcast);
    EXPECT_EQ(got.size_bytes(), frame.size_bytes());
    EXPECT_EQ(tag_of(got), 7) << "node " << id << " sees a sibling's rewrite";
  }
  ASSERT_EQ(ls[1]->forwarded.size(), 1u);
  EXPECT_EQ(tag_of(ls[1]->forwarded[0]), 99);
  EXPECT_EQ(tag_of(frame), 7);
  EXPECT_TRUE(ls[4]->got.empty());  // carrier only
  EXPECT_TRUE(ls[0]->got.empty());  // the sender

  // Collision: 0 and 5 transmit at once, so every receiver's arrivals
  // overlap and are corrupted. Nothing is delivered, and still no Packet is
  // constructed on the arrival path.
  const std::uint64_t corrupted_before = net.trx[1]->frames_corrupted();
  const Packet jam = net.data_frame(5, kBroadcast);
  const Packet before_collision;
  net.trx[0]->transmit(frame);
  net.trx[5]->transmit(jam);
  net.sim.run_until(net.sim.now() + seconds(1));
  const Packet after_collision;
  EXPECT_EQ(after_collision.uid(), before_collision.uid() + 1);
  for (const NodeId id : {1u, 2u, 3u, 4u, 5u}) {
    EXPECT_EQ(ls[id]->got.size(), id == 4 ? 0u : 1u) << "node " << id;
  }
  EXPECT_EQ(net.trx[1]->frames_corrupted(), corrupted_before + 2);
}

}  // namespace
}  // namespace manet

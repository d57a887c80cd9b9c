// Timing decorators for the three public upcall seams of a node's stack.
//
// After Scenario::build() and before run(), install_taps() wraps, for every
// node,
//   Transceiver::set_listener  (phy -> mac upcalls, timed as "mac"),
//   WifiMac::set_listener      (mac -> net upcalls, timed as "net"),
//   Node::set_routing          (net -> routing upcalls, timed as "routing")
// in forwarding decorators. Each decorator times its call and pushes a span
// on a per-replication stack, so a layer's self time is its inclusive time
// minus the spans nested inside it (a MAC upcall that forwards a frame to the
// node reports only the MAC part). Everything outside every tapped upcall —
// the event kernel, channel and transceiver, protocol/MAC/app timers and
// mobility refresh — is "dispatch" time.
//
// Timers scheduled before the taps were installed (protocol start()) keep
// calling the wrapped objects directly; their work lands in dispatch time.
// The decorators forward every call unchanged, so simulated results are
// identical with and without them (checked by the benchmark's digest).
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <memory>
#include <vector>

#include "scenario/scenario.hpp"

namespace perfbench {

enum class Layer : std::uint8_t { kMac, kNet, kRouting, kCount_ };

inline constexpr const char* kLayerNames[] = {"mac", "net", "routing"};

struct LayerTime {
  std::uint64_t calls = 0;
  std::int64_t self_ns = 0;
};

/// Span stack of one replication. Not thread-safe: one per Scenario.
class Spans {
 public:
  template <class F>
  void timed(Layer layer, F&& f) {
    const auto t0 = Clock::now();
    child_ns_.push_back(0);
    f();
    const std::int64_t dt =
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - t0).count();
    const std::int64_t nested = child_ns_.back();
    child_ns_.pop_back();
    LayerTime& lt = layers_[static_cast<std::size_t>(layer)];
    ++lt.calls;
    lt.self_ns += dt - nested;
    if (!child_ns_.empty()) child_ns_.back() += dt;
  }

  [[nodiscard]] const LayerTime& layer(Layer l) const {
    return layers_[static_cast<std::size_t>(l)];
  }

 private:
  using Clock = std::chrono::steady_clock;
  std::array<LayerTime, static_cast<std::size_t>(Layer::kCount_)> layers_{};
  std::vector<std::int64_t> child_ns_;
};

/// phy -> mac seam. Also counts the upcalls by kind.
class PhyTap final : public manet::PhyListener {
 public:
  PhyTap(manet::PhyListener& inner, Spans& spans) : inner_(inner), spans_(spans) {}

  void phy_busy_start() override {
    ++busy_edges;
    spans_.timed(Layer::kMac, [&] { inner_.phy_busy_start(); });
  }
  void phy_busy_end() override {
    ++busy_edges;
    spans_.timed(Layer::kMac, [&] { inner_.phy_busy_end(); });
  }
  void phy_rx(const manet::Packet& frame) override {
    ++rx_frames;
    spans_.timed(Layer::kMac, [&] { inner_.phy_rx(frame); });
  }

  std::uint64_t busy_edges = 0;
  std::uint64_t rx_frames = 0;

 private:
  manet::PhyListener& inner_;
  Spans& spans_;
};

/// mac -> net seam.
class MacTap final : public manet::MacListener {
 public:
  MacTap(manet::MacListener& inner, Spans& spans) : inner_(inner), spans_(spans) {}

  void mac_deliver(const manet::Packet& frame) override {
    ++deliveries;
    spans_.timed(Layer::kNet, [&] { inner_.mac_deliver(frame); });
  }
  void mac_link_failure(const manet::Packet& frame, manet::NodeId next_hop) override {
    ++link_failures;
    spans_.timed(Layer::kNet, [&] { inner_.mac_link_failure(frame, next_hop); });
  }

  std::uint64_t deliveries = 0;
  std::uint64_t link_failures = 0;

 private:
  manet::MacListener& inner_;
  Spans& spans_;
};

/// net -> routing seam. Lifecycle calls forward untimed.
class RoutingTap final : public manet::RoutingProtocol {
 public:
  RoutingTap(manet::Node& node, manet::RoutingProtocol& inner, Spans& spans)
      : RoutingProtocol(node), inner_(inner), spans_(spans) {}

  void start() override { inner_.start(); }
  void route_packet(manet::Packet pkt) override {
    spans_.timed(Layer::kRouting, [&] { inner_.route_packet(std::move(pkt)); });
  }
  void on_control(const manet::Packet& pkt, manet::NodeId from) override {
    spans_.timed(Layer::kRouting, [&] { inner_.on_control(pkt, from); });
  }
  void on_link_failure(const manet::Packet& pkt, manet::NodeId next_hop) override {
    spans_.timed(Layer::kRouting, [&] { inner_.on_link_failure(pkt, next_hop); });
  }
  void on_node_restart() override { inner_.on_node_restart(); }
  [[nodiscard]] const char* name() const override { return inner_.name(); }

 private:
  manet::RoutingProtocol& inner_;
  Spans& spans_;
};

/// The decorators of one Scenario. Must outlive the Scenario's run().
struct Taps {
  Spans spans;
  std::vector<std::unique_ptr<PhyTap>> phy;
  std::vector<std::unique_ptr<MacTap>> mac;
  std::vector<std::unique_ptr<RoutingTap>> routing;
};

/// Wrap every node's three upcall seams. `sc` must be built.
inline void install_taps(manet::Scenario& sc, Taps& taps) {
  for (std::size_t i = 0; i < sc.size(); ++i) {
    manet::Node& n = sc.node(i);
    taps.phy.push_back(std::make_unique<PhyTap>(n.mac(), taps.spans));
    n.transceiver().set_listener(taps.phy.back().get());
    taps.mac.push_back(std::make_unique<MacTap>(n, taps.spans));
    n.mac().set_listener(taps.mac.back().get());
    taps.routing.push_back(std::make_unique<RoutingTap>(n, sc.routing(i), taps.spans));
    n.set_routing(taps.routing.back().get());
  }
}

}  // namespace perfbench

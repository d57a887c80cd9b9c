#include "scenario/builder.hpp"

#include <algorithm>
#include <cmath>

#include "core/assert.hpp"
#include "scenario/validate.hpp"

namespace manet {

ScenarioBuilder ScenarioBuilder::from(const ScenarioConfig& cfg) {
  ScenarioBuilder b;
  b.cfg_ = cfg;
  return b;
}

ScenarioBuilder& ScenarioBuilder::protocol(Protocol p) {
  cfg_.protocol = p;
  protocol_name_.clear();
  return *this;
}

ScenarioBuilder& ScenarioBuilder::protocol(std::string_view name) {
  protocol_name_ = name;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::seed(std::uint64_t seed) {
  cfg_.seed = seed;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::nodes(std::uint32_t count) {
  cfg_.num_nodes = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::area(double width_m, double height_m) {
  cfg_.area = Area{width_m, height_m};
  return *this;
}

ScenarioBuilder& ScenarioBuilder::static_nodes(bool on) {
  cfg_.static_nodes = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::mobility(MobilityKind kind) {
  cfg_.mobility = kind;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::speed(double v_min_mps, double v_max_mps) {
  cfg_.v_min = v_min_mps;
  cfg_.v_max = v_max_mps;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::pause(SimTime pause) {
  cfg_.pause = pause;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::connections(std::uint32_t count) {
  cfg_.num_connections = count;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::payload(std::size_t bytes) {
  cfg_.payload_bytes = bytes;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::traffic(TrafficKind kind) {
  cfg_.traffic = kind;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::cbr_interval(SimTime interval) {
  cfg_.cbr_interval = interval;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::transport(const TransportConfig& transport) {
  cfg_.transport = transport;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::duration(SimTime duration) {
  cfg_.duration = duration;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::shards(std::uint32_t count) {
  MANET_EXPECTS_MSG(count == 1, "shards(%u): the simulator has one executive; only 1 is accepted",
                    count);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::fault(const FaultConfig& fault) {
  cfg_.fault = fault;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::trace(std::string path) {
  cfg_.trace_path = std::move(path);
  return *this;
}

ScenarioBuilder& ScenarioBuilder::measure_connectivity(bool on) {
  cfg_.measure_connectivity = on;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::phy(const PhyConfig& phy) {
  cfg_.phy = phy;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::mac(const MacConfig& mac) {
  cfg_.mac = mac;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::frame_loss(double rate) {
  cfg_.phy.frame_loss_rate = rate;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::urban(double street_width_m, double nlos_range_m,
                                        double nlos_loss) {
  cfg_.phy.street_width_m = street_width_m;
  cfg_.phy.nlos_rx_range_m = nlos_range_m;
  cfg_.phy.nlos_loss_rate = nlos_loss;
  return *this;
}

ScenarioBuilder& ScenarioBuilder::with(const std::function<void(ScenarioConfig&)>& fn) {
  MANET_EXPECTS(fn != nullptr);
  fn(cfg_);
  return *this;
}

ScenarioConfig ScenarioBuilder::build() const {
  ScenarioConfig cfg = cfg_;
  if (!protocol_name_.empty()) {
    const routing::ProtocolEntry* e = protocol_registry().by_name(protocol_name_);
    MANET_EXPECTS_MSG(e != nullptr, "unknown protocol \"%s\" (registered: %s)",
                      protocol_name_.c_str(), protocol_registry().names().c_str());
    cfg.protocol = static_cast<Protocol>(e->id);
  }
  expect_valid(cfg);
  return cfg;
}

ScenarioResult ScenarioBuilder::run() const { return Scenario::run_once(build()); }

ScenarioBuilder urban_scenario(std::uint32_t nodes) {
  // Constant density: the paper's 50 nodes over ~1 km², with the city side
  // quantized to whole 200 m blocks so streets terminate at intersections.
  const double block = 200.0;
  double side = std::sqrt(static_cast<double>(nodes) / 50.0) * 1000.0;
  side = std::max(block, std::round(side / block) * block);
  // Flow count grows sub-linearly so per-node offered load shrinks with city
  // size, as in real urban traces (most nodes are relays, not endpoints).
  const std::uint32_t flows = std::max<std::uint32_t>(10, nodes / 100);
  return ScenarioBuilder()
      .nodes(nodes)
      .area(side, side)
      .mobility(MobilityKind::kManhattan)
      .speed(1.0, 15.0)  // vehicular street speeds
      .connections(flows)
      .urban(/*street_width_m=*/20.0, /*nlos_range_m=*/75.0, /*nlos_loss=*/0.1);
}

}  // namespace manet

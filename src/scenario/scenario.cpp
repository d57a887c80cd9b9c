#include "scenario/scenario.hpp"

#include <algorithm>
#include <cstdio>
#include <sstream>

#include "core/assert.hpp"
#include "mobility/random_walk.hpp"
#include "mobility/random_waypoint.hpp"
#include "mobility/static_mobility.hpp"

namespace manet {

const char* to_string(TrafficKind k) {
  switch (k) {
    case TrafficKind::kCbr: return "CBR/UDP";
    case TrafficKind::kOnOff: return "exponential on/off UDP";
  }
  return "?";
}

const char* to_string(MobilityKind k) {
  switch (k) {
    case MobilityKind::kRandomWaypoint: return "random waypoint";
    case MobilityKind::kRandomWalk: return "random walk";
    case MobilityKind::kGaussMarkov: return "gauss-markov";
    case MobilityKind::kManhattan: return "manhattan";
  }
  return "?";
}

const routing::Registry& protocol_registry() {
  // Function-local static: the registrations run on first use, which
  // sidesteps the static-initialization-order and dropped-initializer
  // hazards of self-registering globals inside static libraries.
  static const routing::Registry kRegistry = [] {
    routing::Registry r;
    using routing::ProtocolEntry;
    using Ptr = std::unique_ptr<RoutingProtocol>;
    // One add() per implementation, in the canonical table order.
    r.add(ProtocolEntry{"AODV", static_cast<std::uint8_t>(Protocol::kAodv),
                        [](Node& n, const ScenarioConfig& c, RngStream rng) -> Ptr {
                          return std::make_unique<aodv::Aodv>(n, c.aodv, rng);
                        }});
    r.add(ProtocolEntry{"DSR", static_cast<std::uint8_t>(Protocol::kDsr),
                        [](Node& n, const ScenarioConfig& c, RngStream rng) -> Ptr {
                          return std::make_unique<dsr::Dsr>(n, c.dsr, rng);
                        }});
    r.add(ProtocolEntry{"CBRP", static_cast<std::uint8_t>(Protocol::kCbrp),
                        [](Node& n, const ScenarioConfig& c, RngStream rng) -> Ptr {
                          return std::make_unique<cbrp::Cbrp>(n, c.cbrp, rng);
                        }});
    r.add(ProtocolEntry{"DSDV", static_cast<std::uint8_t>(Protocol::kDsdv),
                        [](Node& n, const ScenarioConfig& c, RngStream rng) -> Ptr {
                          return std::make_unique<dsdv::Dsdv>(n, c.dsdv, rng);
                        }});
    r.add(ProtocolEntry{"OLSR", static_cast<std::uint8_t>(Protocol::kOlsr),
                        [](Node& n, const ScenarioConfig& c, RngStream rng) -> Ptr {
                          return std::make_unique<olsr::Olsr>(n, c.olsr, rng);
                        }});
    r.add(ProtocolEntry{"LAR", static_cast<std::uint8_t>(Protocol::kLar),
                        [](Node& n, const ScenarioConfig& c, RngStream rng) -> Ptr {
                          return std::make_unique<lar::Lar>(n, c.lar, rng);
                        }});
    r.add(ProtocolEntry{"TORA", static_cast<std::uint8_t>(Protocol::kTora),
                        [](Node& n, const ScenarioConfig& c, RngStream rng) -> Ptr {
                          return std::make_unique<tora::Tora>(n, c.tora, rng);
                        }});
    return r;
  }();
  return kRegistry;
}

const char* to_string(Protocol p) {
  const routing::ProtocolEntry* e = protocol_registry().by_id(static_cast<std::uint8_t>(p));
  return e != nullptr ? e->name : "?";
}

std::string ScenarioConfig::parameter_table() const {
  std::ostringstream os;
  os << "Parameter            | Value\n";
  os << "---------------------+---------------------------\n";
  os << "Connection type      | " << to_string(traffic) << "\n";
  os << "Simulation area      | " << area.width << " x " << area.height << " m\n";
  os << "Transmission range   | " << phy.rx_range_m << " m\n";
  os << "Carrier-sense range  | " << phy.cs_range_m << " m\n";
  os << "Link bandwidth       | " << phy.data_rate_bps / 1e6 << " Mbit/s\n";
  os << "Packet size          | " << payload_bytes << " bytes\n";
  os << "Number of nodes      | " << num_nodes << "\n";
  os << "Duration             | " << duration.sec() << " s\n";
  os << "Pause time           | " << pause.sec() << " s\n";
  os << "Node speed           | " << v_min << " - " << v_max << " m/s\n";
  os << "CBR start            | " << cbr_start.sec() << " s (staggered +"
     << cbr_start_window.sec() << " s)\n";
  os << "CBR rate             | " << 1.0 / cbr_interval.sec() << " packets/s\n";
  os << "Number of connections| " << num_connections << "\n";
  os << "Mobility model       | " << (static_nodes ? "static" : to_string(mobility)) << "\n";
  os << "Interface queue      | " << mac.ifq_capacity << " packets, drop-tail\n";
  return os.str();
}

std::unique_ptr<RoutingProtocol> make_protocol(const ScenarioConfig& cfg, Node& node) {
  const routing::ProtocolEntry* e =
      protocol_registry().by_id(static_cast<std::uint8_t>(cfg.protocol));
  MANET_EXPECTS_MSG(e != nullptr, "no protocol registered for enum value %u",
                    static_cast<unsigned>(cfg.protocol));
  return e->make(node, cfg, RngStream(cfg.seed, "routing", node.id()));
}

Scenario::Scenario(const ScenarioConfig& cfg) : cfg_(cfg) {
  MANET_EXPECTS(cfg.num_nodes >= 2);
  MANET_EXPECTS(cfg.area.width > 0 && cfg.area.height > 0);
}

void Scenario::build() {
  if (built_) return;
  built_ = true;
  const PacketUidScope uids(next_uid_);

  channel_ = std::make_unique<Channel>(sim_, cfg_.phy, cfg_.area, milliseconds(250), cfg_.seed);

  // Mobility models live in the arena pool, id-ordered and contiguous, so
  // the channel's periodic position refresh — the one loop that must visit
  // every node — walks them sequentially in memory.
  for (std::uint32_t i = 0; i < cfg_.num_nodes; ++i) {
    MobilityModel* mob = nullptr;
    RngStream mrng(cfg_.seed, "mobility", i);
    if (cfg_.static_nodes) {
      mob = mobility_pool_.make<StaticMobility>(
          Vec2{mrng.uniform(0.0, cfg_.area.width), mrng.uniform(0.0, cfg_.area.height)});
    } else {
      switch (cfg_.mobility) {
        case MobilityKind::kRandomWaypoint: {
          RandomWaypointConfig wp;
          wp.area = cfg_.area;
          wp.v_min = cfg_.v_min;
          wp.v_max = cfg_.v_max;
          wp.pause = cfg_.pause;
          wp.warmup = cfg_.mobility_warmup;
          mob = mobility_pool_.make<RandomWaypoint>(wp, mrng);
          break;
        }
        case MobilityKind::kRandomWalk: {
          RandomWalkConfig rw;
          rw.area = cfg_.area;
          rw.v_min = cfg_.v_min;
          rw.v_max = cfg_.v_max;
          mob = mobility_pool_.make<RandomWalk>(rw, mrng);
          break;
        }
        case MobilityKind::kGaussMarkov: {
          GaussMarkovConfig gm = cfg_.gauss_markov;
          gm.area = cfg_.area;
          gm.mean_speed = 0.5 * (cfg_.v_min + cfg_.v_max);
          gm.max_speed = cfg_.v_max * 1.25;
          mob = mobility_pool_.make<GaussMarkov>(gm, mrng);
          break;
        }
        case MobilityKind::kManhattan: {
          ManhattanConfig mh = cfg_.manhattan;
          mh.area = cfg_.area;
          mh.v_min = std::max(cfg_.v_min, 0.5);
          mh.v_max = cfg_.v_max;
          mob = mobility_pool_.make<Manhattan>(mh, mrng);
          break;
        }
      }
    }
    nodes_.push_back(std::make_unique<Node>(sim_, stats_, *channel_, i, mob, cfg_.mac, cfg_.seed));
  }

  if (!cfg_.trace_path.empty()) {
    trace_ = std::make_unique<TraceWriter>(cfg_.trace_path);
    if (trace_->ok()) {
      for (auto& node : nodes_) node->set_trace(trace_.get());
    }
  }

  for (auto& node : nodes_) {
    protocols_.push_back(make_protocol(cfg_, *node));
    node->set_routing(protocols_.back().get());
  }

  // Reliable transport (optional): one endpoint per node, all feeding the
  // shared FlowMonitor. Attached before the traffic sources start so the
  // apps see it and switch to closed-loop mode.
  if (cfg_.transport.enabled) {
    for (auto& node : nodes_) {
      transports_.push_back(
          std::make_unique<ReliableTransport>(*node, cfg_.transport, &flow_monitor_));
      node->set_transport(transports_.back().get());
    }
  }

  // Traffic: `num_connections` distinct (src, dst) pairs, start times
  // staggered uniformly across the start window — the standard cbrgen.tcl
  // recipe.
  RngStream trng(cfg_.seed, "traffic");
  for (std::uint32_t c = 0; c < cfg_.num_connections; ++c) {
    const auto src = static_cast<NodeId>(trng.uniform_int(0, cfg_.num_nodes - 1));
    NodeId dst;
    do {
      dst = static_cast<NodeId>(trng.uniform_int(0, cfg_.num_nodes - 1));
    } while (dst == src);
    flows_.emplace_back(src, dst);
    const SimTime start =
        cfg_.cbr_start + nanoseconds(trng.uniform_int(0, cfg_.cbr_start_window.ns()));
    if (cfg_.traffic == TrafficKind::kCbr) {
      CbrSource::Config cc;
      cc.flow = c;
      cc.dst = dst;
      cc.payload_bytes = cfg_.payload_bytes;
      cc.interval = cfg_.cbr_interval;
      cc.start = start;
      cc.stop = cfg_.duration;
      sources_.push_back(std::make_unique<CbrSource>(*nodes_[src], cc));
    } else {
      OnOffSource::Config oc;
      oc.flow = c;
      oc.dst = dst;
      oc.payload_bytes = cfg_.payload_bytes;
      oc.interval = cfg_.cbr_interval;
      oc.burst_mean = cfg_.onoff_burst_mean;
      oc.idle_mean = cfg_.onoff_idle_mean;
      oc.start = start;
      oc.stop = cfg_.duration;
      onoff_sources_.push_back(std::make_unique<OnOffSource>(
          *nodes_[src], oc, RngStream(cfg_.seed, "onoff", c)));
    }
  }

  // Fault injection: compile the deterministic schedule and arm each event
  // as an ordinary simulator event. The plan outlives the scheduling lambdas
  // (member storage), so they capture plain references into it.
  if (cfg_.fault.enabled()) {
    fault_plan_ =
        FaultPlan::compile(cfg_.fault, cfg_.num_nodes, cfg_.area, cfg_.duration, cfg_.seed);
    channel_->set_fault(&fault_runtime_);
    channel_->set_stats(&stats_);
    for (const FaultEvent& ev : fault_plan_.events()) {
      sim_.schedule_at(ev.at, [this, &ev] { apply_fault(ev); });
    }
  }

  channel_->start();
  for (auto& protocol : protocols_) protocol->start();
  for (auto& source : sources_) source->start();
  for (auto& source : onoff_sources_) source->start();

  if (cfg_.measure_connectivity && !flows_.empty()) {
    sim_.schedule_at(cfg_.cbr_start, [this] { sample_connectivity(); });
  }
}

void Scenario::sample_connectivity() {
  // Reachability in the instantaneous unit-disk graph over exact positions.
  // The adjacency is never materialized: one lazy BFS per distinct flow
  // source expands grid-locally through Channel::neighbors_of and stops as
  // soon as every destination of that source has been reached. This replaced
  // an O(N) sweep that built the full N-node adjacency map each second —
  // intractable bookkeeping at N = 10,000 when only a handful of flow
  // endpoints matter. Reachability over the same graph is unchanged, so the
  // connectivity metric (and the pinned goldens) stay byte-identical.
  const PhyConfig& phy = cfg_.phy;
  const double radius = phy.rx_range_m;
  const double nlos_r2 = phy.nlos_rx_range_m * phy.nlos_rx_range_m;
  conn_mark_.resize(cfg_.num_nodes, 0);

  // Group destinations by source in first-appearance order (deterministic;
  // duplicates kept — each flow is one sample).
  std::vector<std::pair<NodeId, std::vector<NodeId>>> by_src;
  for (const auto& [src, dst] : flows_) {
    auto it = std::find_if(by_src.begin(), by_src.end(),
                           [s = src](const auto& e) { return e.first == s; });
    if (it == by_src.end()) it = by_src.insert(by_src.end(), {src, {}});
    it->second.push_back(dst);
  }

  for (const auto& [src, dsts] : by_src) {
    const std::uint32_t epoch = ++conn_epoch_;
    conn_mark_[src] = epoch;
    conn_frontier_.assign(1, src);
    auto reached_all = [&] {
      return std::all_of(dsts.begin(), dsts.end(),
                         [&](NodeId d) { return conn_mark_[d] == epoch; });
    };
    while (!conn_frontier_.empty() && !reached_all()) {
      conn_next_.clear();
      for (const NodeId u : conn_frontier_) {
        for (const NodeId v : channel_->neighbors_of(u, radius)) {
          if (conn_mark_[v] == epoch) continue;
          // Urban family: the oracle honours the street-canyon model — an
          // NLOS pair is an edge only within the diffraction range. Open
          // field (urban() == false) takes the plain unit-disk edge.
          if (phy.urban()) {
            const Vec2 pu = channel_->position_of(u);
            const Vec2 pv = channel_->position_of(v);
            if (!phy.line_of_sight(pu, pv) && distance2(pu, pv) > nlos_r2) continue;
          }
          conn_mark_[v] = epoch;
          conn_next_.push_back(v);
        }
      }
      conn_frontier_.swap(conn_next_);
    }
    for (const NodeId dst : dsts) {
      ++conn_samples_;
      if (conn_mark_[dst] == epoch) ++conn_connected_;
    }
  }

  if (sim_.now() + seconds(1) <= cfg_.duration) {
    sim_.schedule(seconds(1), [this] { sample_connectivity(); });
  }
}

void Scenario::apply_fault(const FaultEvent& ev) {
  fault_runtime_.apply(ev);
  char note[64];
  switch (ev.kind) {
    case FaultEventKind::kCrash:
      nodes_[ev.a]->crash();  // records its own trace line
      stats_.on_fault_begin(ev.at);
      return;
    case FaultEventKind::kRestart:
      nodes_[ev.a]->restart();
      stats_.on_fault_end(ev.at);
      return;
    case FaultEventKind::kLinkDown:
    case FaultEventKind::kLinkUp:
      std::snprintf(note, sizeof(note), "%s %u-%u", to_string(ev.kind), ev.a, ev.b);
      if (trace_) trace_->record_fault(ev.at, kBroadcast, note);
      if (ev.kind == FaultEventKind::kLinkDown) {
        stats_.on_fault_begin(ev.at);
      } else {
        stats_.on_fault_end(ev.at);
      }
      return;
    case FaultEventKind::kPartitionStart:
    case FaultEventKind::kPartitionEnd:
      std::snprintf(note, sizeof(note), "%s x=%g", to_string(ev.kind), ev.value);
      if (trace_) trace_->record_fault(ev.at, kBroadcast, note);
      if (ev.kind == FaultEventKind::kPartitionStart) {
        stats_.on_fault_begin(ev.at);
      } else {
        stats_.on_fault_end(ev.at);
      }
      return;
    case FaultEventKind::kCorruptStart:
    case FaultEventKind::kCorruptEnd:
      // Degrades links without severing them: traced, but not an outage for
      // the recovery metrics.
      std::snprintf(note, sizeof(note), "%s p=%g", to_string(ev.kind), ev.value);
      if (trace_) trace_->record_fault(ev.at, kBroadcast, note);
      return;
  }
}

ScenarioResult Scenario::run() {
  const PacketUidScope uids(next_uid_);
  build();
  sim_.run_until(cfg_.duration);
  if (trace_) trace_->flush();

  ScenarioResult r;
  r.pdr = stats_.pdr();
  r.delay_ms = stats_.avg_delay_s() * 1e3;
  r.nrl = stats_.nrl();
  r.nml = stats_.nml();
  r.throughput_kbps = stats_.throughput_bps(cfg_.duration) / 1e3;
  r.avg_hops = stats_.avg_hops();
  if (conn_samples_ > 0) {
    r.connectivity = static_cast<double>(conn_connected_) / static_cast<double>(conn_samples_);
  }
  r.data_originated = stats_.data_originated();
  r.data_delivered = stats_.data_delivered();
  r.retransmissions = flow_monitor_.total_retransmissions();
  r.routing_tx = stats_.routing_tx();
  r.mac_ctrl_tx = stats_.mac_ctrl_tx();
  r.events = sim_.events_executed();
  r.peak_queue_depth = sim_.peak_queue_size();
  r.repair_latency_ms = stats_.mean_repair_latency_s() * 1e3;
  r.crashes = stats_.crashes();
  r.fault_corrupted = stats_.fault_corrupted();
  r.delivered_during_fault = stats_.delivered_during_fault();
  r.delivered_after_fault = stats_.delivered_after_fault();
  r.flows = flow_monitor_.all();
  return r;
}

ScenarioResult Scenario::run_once(const ScenarioConfig& cfg) {
  Scenario s(cfg);
  return s.run();
}

}  // namespace manet

#include "phy/channel.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace manet {

Channel::Channel(Simulator& sim, const PhyConfig& cfg, Area area, SimTime refresh,
                 std::uint64_t seed)
    : sim_(sim),
      cfg_(cfg),
      grid_(area, cfg.cs_range_m),
      refresh_(refresh),
      loss_rng_(seed, "channel-loss"),
      fault_rng_(seed, "fault-corrupt"),
      shadow_rng_(seed, "urban-shadow") {
  MANET_EXPECTS(refresh > SimTime::zero());
  MANET_EXPECTS(cfg.frame_loss_rate >= 0.0 && cfg.frame_loss_rate < 1.0);
  MANET_EXPECTS(cfg.street_width_m >= 0.0);
  MANET_EXPECTS(cfg.nlos_loss_rate >= 0.0 && cfg.nlos_loss_rate < 1.0);
  if (cfg.urban()) MANET_EXPECTS(cfg.nlos_rx_range_m > 0.0 && cfg.nlos_rx_range_m <= cfg.rx_range_m);
}

void Channel::add(Transceiver* trx, MobilityModel* mob) {
  MANET_EXPECTS(trx != nullptr && mob != nullptr);
  MANET_EXPECTS(trx->id() == trx_.size());  // dense registration order
  trx->attach_channel(this);
  trx_.push_back(trx);
  mob_.push_back(mob);
  max_speed_ = std::max(max_speed_, mob->max_speed());
  const std::uint32_t gid = grid_.insert(mob->position_at(sim_.now()));
  MANET_ASSERT(gid == trx->id());
}

void Channel::start() {
  sim_.schedule(refresh_, [this] { refresh_positions(); });
}

void Channel::refresh_positions() {
  // manet-lint: allow-node-scan - periodic 4 Hz grid refresh, not per-event
  for (std::uint32_t i = 0; i < trx_.size(); ++i) {
    grid_.update(i, mob_[i]->position_at(sim_.now()));
  }
  sim_.schedule(refresh_, [this] { refresh_positions(); });
}

Vec2 Channel::position_of(NodeId id) {
  MANET_EXPECTS(id < mob_.size());
  const Vec2 p = mob_[id]->position_at(sim_.now());
  grid_.update(id, p);
  return p;
}

SimTime Channel::transmit(NodeId sender, const Packet& frame) {
  MANET_EXPECTS(sender < trx_.size());
  const SimTime airtime = cfg_.airtime(frame.size_bytes());
  // A crashed sender radiates nothing. (The node gates its own sends too;
  // this catches MAC events already in flight at the crash instant.)
  if (fault_ != nullptr && fault_->node_down(sender)) return airtime;
  const Vec2 src = position_of(sender);
  const double corrupt_rate = fault_ != nullptr ? fault_->corrupt_rate() : 0.0;

  // Grid query with slack: a node may have moved up to v_max * refresh since
  // its slot was updated, and the sender itself is exact, hence one factor of
  // v_max for the candidate plus a safety margin.
  const double slack = max_speed_ * refresh_.sec() * 2.0 + 1.0;
  scratch_.clear();
  grid_.query(src, cfg_.cs_range_m + slack, sender, scratch_);

  const double rx2 = cfg_.rx_range_m * cfg_.rx_range_m;
  const double cs2 = cfg_.cs_range_m * cfg_.cs_range_m;
  const bool urban = cfg_.urban();
  const double nlos_rx2 = cfg_.nlos_rx_range_m * cfg_.nlos_rx_range_m;
  // One pooled read-only copy is shared by every decodable arrival of this
  // transmission: each receiver holds the pointer from rx_start to rx_end
  // and hands the listener a reference, so no arrival constructs or copies a
  // Packet. The copy returns to the arena after the last receiver's rx_end.
  std::shared_ptr<const Packet> copy;
  for (const std::uint32_t id : scratch_) {
    // A down receiver absorbs nothing — not even carrier energy; its radio
    // is off. A blacked-out or partition-cut link is silent in both
    // directions. Both checks precede any RNG draw so that fault-free runs
    // consume the loss stream identically with or without a FaultRuntime.
    if (fault_ != nullptr && fault_->node_down(id)) continue;
    const Vec2 dst = mob_[id]->position_at(sim_.now());
    grid_.update(id, dst);
    if (fault_ != nullptr && fault_->link_blocked(sender, id, src, dst)) continue;
    const double d2 = distance2(src, dst);
    if (d2 > cs2) continue;
    const SimTime prop = cfg_.propagation(std::sqrt(d2));
    Transceiver* rx = trx_[id];
    bool faded = cfg_.frame_loss_rate > 0.0 && loss_rng_.chance(cfg_.frame_loss_rate);
    // Urban street-canyon shadowing: an NLOS pair decodes only within the
    // short diffraction range, and then only past an extra loss draw. The
    // shadow stream is consumed solely on urban NLOS decode candidates, so
    // open-field runs (urban == false) draw exactly as before — the pinned
    // goldens never see this branch. Interference (the carrier-only path
    // below) is untouched: energy still trips carrier sense at cs_range.
    if (urban && d2 <= rx2 && !cfg_.line_of_sight(src, dst)) {
      if (d2 > nlos_rx2) {
        faded = true;
      } else if (!faded && cfg_.nlos_loss_rate > 0.0 && shadow_rng_.chance(cfg_.nlos_loss_rate)) {
        faded = true;
      }
    }
    if (d2 <= rx2 && !faded && corrupt_rate > 0.0 && fault_rng_.chance(corrupt_rate)) {
      // Channel corruption: the frame still arrives as interference (the
      // carrier-only path below), it just cannot be decoded.
      faded = true;
      if (stats_ != nullptr) stats_->on_fault_corruption(frame.kind == PacketKind::kData);
    }
    if (d2 <= rx2 && !faded) {
      if (copy == nullptr) copy = arena_.make(frame);
      // The closure runs exactly once, so it moves its reference out.
      auto arrive = [rx, frame = copy, airtime]() mutable {
        rx->rx_start(std::move(frame), airtime);
      };
      static_assert(sizeof(arrive) <= EventCallback::kInlineBytes,
                    "a frame arrival must fit EventCallback's inline buffer");
      sim_.schedule(prop, std::move(arrive));
    } else {
      // Carrier/interference only.
      sim_.schedule(prop, [rx, airtime] { rx->rx_start(nullptr, airtime); });
    }
  }
  return airtime;
}

std::vector<NodeId> Channel::neighbors_of(NodeId id, double radius) {
  const Vec2 p = position_of(id);
  // Refresh candidates exactly, as transmit() does.
  const double slack = max_speed_ * refresh_.sec() * 2.0 + 1.0;
  scratch_.clear();
  grid_.query(p, radius + slack, id, scratch_);
  std::vector<NodeId> out;
  const double r2 = radius * radius;
  for (const std::uint32_t cand : scratch_) {
    const Vec2 q = mob_[cand]->position_at(sim_.now());
    grid_.update(cand, q);
    if (distance2(p, q) <= r2) out.push_back(cand);
  }
  return out;
}

}  // namespace manet

#include "phy/transceiver.hpp"

#include <algorithm>

#include "core/assert.hpp"
#include "phy/channel.hpp"

namespace manet {

Transceiver::Transceiver(Simulator& sim, const PhyConfig& cfg, NodeId id)
    : sim_(sim), cfg_(cfg), id_(id) {}

void Transceiver::update_busy_edges(bool was_busy) {
  const bool busy = medium_busy();
  if (busy == was_busy) return;
  if (!busy) last_idle_edge_ = sim_.now();
  if (!listening_ || listener_ == nullptr) return;
  if (busy) {
    listener_->phy_busy_start();
  } else {
    listener_->phy_busy_end();
  }
}

void Transceiver::listen_edges(bool on) {
  if (on == listening_) return;
  listening_ = on;
  if (on) {
    if (carrier_active()) arm_idle_edge();
  } else {
    sim_.cancel(idle_edge_ev_);
  }
}

void Transceiver::arm_idle_edge() {
  idle_edge_ev_ = sim_.schedule_reserved(carrier_end_, [this] { carrier_idle_edge(); });
}

void Transceiver::carrier_idle_edge() {
  // Armed at an earlier end that a later arrival has since extended: move on
  // to the new end rather than re-arming at every extension.
  if (carrier_active()) {
    arm_idle_edge();
    return;
  }
  // Dispatching at carrier_end_ itself: the carrier has just ended, so the
  // medium was busy an instant ago and is idle now unless a transmission or
  // a decodable arrival still holds it.
  update_busy_edges(/*was_busy=*/true);
}

SimTime Transceiver::transmit(const Packet& frame) {
  MANET_EXPECTS(channel_ != nullptr);
  MANET_EXPECTS(!transmitting_);
  const bool was_busy = medium_busy();
  transmitting_ = true;
  // Half-duplex: anything arriving right now is lost.
  for (auto& rx : active_) rx.corrupted = true;
  const SimTime airtime = channel_->transmit(id_, frame);
  if (stats_ != nullptr) stats_->on_tx_energy(cfg_.tx_power_w * airtime.sec());
  sim_.schedule(airtime, [this] { tx_end(); });
  update_busy_edges(was_busy);
  return airtime;
}

void Transceiver::tx_end() {
  MANET_ASSERT(transmitting_);
  const bool was_busy = medium_busy();
  transmitting_ = false;
  update_busy_edges(was_busy);
}

void Transceiver::set_down(bool down) {
  down_ = down;
  if (down) {
    // A crash mid-reception loses the frame; the pending rx_end events still
    // drain active_ normally.
    for (auto& rx : active_) rx.corrupted = true;
  }
}

void Transceiver::rx_start(std::shared_ptr<const Packet> frame, SimTime airtime) {
  if (down_) return;
  const bool was_busy = medium_busy();
  // Collision rule: a second overlapping arrival corrupts every decodable
  // frame in flight, including the new one. Carrier-only arrivals corrupt
  // decodable frames too (they are interference), and vice versa.
  const bool overlap = !active_.empty() || carrier_active();
  if (overlap) {
    for (auto& other : active_) other.corrupted = true;
  }
  if (frame == nullptr) {
    carrier_start(airtime);
  } else {
    // Receiving while transmitting: frame lost (half-duplex).
    const std::uint64_t key = next_key_++;
    active_.push_back(ActiveRx{key, airtime, std::move(frame), overlap || transmitting_});
    sim_.schedule(airtime, [this, key] { rx_end(key); });
  }
  update_busy_edges(was_busy);
}

void Transceiver::carrier_start(SimTime airtime) {
  // The seq the end event would have had keeps every later event's number
  // (and so every same-instant tie) unchanged.
  const EventKey end{sim_.now() + airtime, sim_.reserve_seq()};
  if (stats_ != nullptr) stats_->defer_rx_energy(end, cfg_.rx_power_w * airtime.sec());
  if (carrier_end_ < end) carrier_end_ = end;
  if (listening_ && !sim_.pending(idle_edge_ev_)) arm_idle_edge();
}

void Transceiver::rx_end(std::uint64_t key) {
  auto it = std::find_if(active_.begin(), active_.end(),
                         [key](const ActiveRx& r) { return r.key == key; });
  MANET_ASSERT(it != active_.end());
  const bool was_busy = medium_busy();
  ActiveRx rx = std::move(*it);
  active_.erase(it);

  if (stats_ != nullptr) {
    stats_->on_rx_energy(sim_.current_key(), cfg_.rx_power_w * rx.airtime.sec());
  }
  // A frame whose tail overlapped our own transmission is also lost.
  if (transmitting_) rx.corrupted = true;
  if (rx.corrupted) {
    ++frames_corrupt_;
    if (stats_ != nullptr) stats_->on_collision();
  } else {
    ++frames_rx_;
    if (listener_ != nullptr) listener_->phy_rx(*rx.frame);
  }
  update_busy_edges(was_busy);
}

}  // namespace manet

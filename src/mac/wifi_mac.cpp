#include "mac/wifi_mac.hpp"

#include <algorithm>

#include "core/assert.hpp"

namespace manet {

namespace {
// Safety margin added to CTS/ACK timeouts, covering turnaround slop.
constexpr SimTime kTimeoutMargin = microseconds(5);
}  // namespace

WifiMac::WifiMac(Simulator& sim, const MacConfig& cfg, Transceiver& trx, StatsCollector& stats,
                 RngStream rng)
    : sim_(sim), cfg_(cfg), trx_(trx), stats_(stats), rng_(rng), cw_(cfg.cw_min) {
  trx_.set_listener(this);
}

// ---------------------------------------------------------------------------
// Queueing
// ---------------------------------------------------------------------------

void WifiMac::enqueue(Packet pkt) {
  pkt.mac.type = MacFrameType::kData;
  pkt.mac.src = trx_.id();
  pkt.mac.seq = tx_seq_++;
  pkt.mac.retry = false;
  if (!current_.has_value()) {
    current_ = std::move(pkt);
    state_ = State::kContend;
    begin_contention();
    return;
  }
  if (ifq_.size() >= cfg_.ifq_capacity) {
    if (pkt.kind == PacketKind::kData) stats_.on_data_dropped(DropReason::kIfqFull);
    return;
  }
  ifq_.push_back(std::move(pkt));
}

void WifiMac::reset() {
  sim_.cancel(difs_ev_);
  sim_.cancel(nav_ev_);
  sim_.cancel(backoff_ev_);
  sim_.cancel(timeout_ev_);
  if (current_.has_value()) {
    if (current_->kind == PacketKind::kData) stats_.on_data_dropped(DropReason::kNodeDown);
    current_.reset();
  }
  for (const Packet& p : ifq_) {
    if (p.kind == PacketKind::kData) stats_.on_data_dropped(DropReason::kNodeDown);
  }
  ifq_.clear();
  state_ = State::kIdle;
  short_retries_ = long_retries_ = 0;
  cw_ = cfg_.cw_min;
  backoff_slots_ = 0;
  nav_until_ = SimTime::zero();
  rx_last_seq_.clear();
}

void WifiMac::start_service() {
  // The link-failure callback in finish_current() may re-enter enqueue() and
  // begin serving a new frame before we get here.
  if (current_.has_value()) return;
  if (ifq_.empty()) {
    state_ = State::kIdle;
    return;
  }
  current_ = std::move(ifq_.front());
  ifq_.pop_front();
  state_ = State::kContend;
  begin_contention();
}

// ---------------------------------------------------------------------------
// Contention engine: DIFS deferral + frozen-while-busy backoff
// ---------------------------------------------------------------------------

bool WifiMac::medium_free() const {
  return !trx_.medium_busy() && sim_.now() >= nav_until_;
}

SimTime WifiMac::idle_since() const {
  // The medium counts as busy through the end of the NAV even if physically
  // quiet, so the DIFS clock starts at whichever is later.
  return std::max(last_idle_start_, nav_until_);
}

void WifiMac::begin_contention() { medium_check(); }

void WifiMac::medium_check() {
  if (state_ != State::kContend) return;
  sim_.cancel(difs_ev_);
  sim_.cancel(nav_ev_);
  if (trx_.medium_busy()) {
    return;  // phy_busy_end will re-invoke us
  }
  if (sim_.now() < nav_until_) {
    nav_ev_ = sim_.schedule(nav_until_ - sim_.now(), [this] { medium_check(); });
    return;
  }
  const SimTime idle_for = sim_.now() - idle_since();
  if (idle_for >= cfg_.difs) {
    difs_elapsed();
  } else {
    difs_ev_ = sim_.schedule(cfg_.difs - idle_for, [this] { difs_elapsed(); });
  }
}

void WifiMac::difs_elapsed() {
  if (state_ != State::kContend) return;
  if (backoff_slots_ == 0) {
    transmit_current();
    return;
  }
  backoff_started_ = sim_.now();
  backoff_ev_ =
      sim_.schedule(cfg_.slot * static_cast<std::int64_t>(backoff_slots_), [this] { backoff_done(); });
}

void WifiMac::backoff_done() {
  if (state_ != State::kContend) return;
  backoff_slots_ = 0;
  transmit_current();
}

void WifiMac::freeze_backoff() {
  if (!sim_.pending(backoff_ev_)) return;
  sim_.cancel(backoff_ev_);
  const auto elapsed =
      static_cast<std::uint32_t>((sim_.now() - backoff_started_) / cfg_.slot);
  backoff_slots_ -= std::min(elapsed, backoff_slots_);
}

void WifiMac::phy_busy_start() {
  sim_.cancel(difs_ev_);
  sim_.cancel(nav_ev_);
  freeze_backoff();
}

void WifiMac::phy_busy_end() {
  last_idle_start_ = sim_.now();
  medium_check();
}

void WifiMac::update_nav(SimTime duration) {
  const SimTime until = sim_.now() + duration;
  if (until <= nav_until_) return;
  nav_until_ = until;
  if (state_ == State::kContend) {
    sim_.cancel(difs_ev_);
    freeze_backoff();
    medium_check();
  }
}

// ---------------------------------------------------------------------------
// Transmit paths
// ---------------------------------------------------------------------------

void WifiMac::count_tx(const Packet& frame) {
  switch (frame.mac.type) {
    case MacFrameType::kRts:
    case MacFrameType::kCts:
    case MacFrameType::kAck:
      stats_.on_mac_ctrl_tx();
      return;
    case MacFrameType::kData: break;
  }
  switch (frame.kind) {
    case PacketKind::kData: stats_.on_data_tx(); break;
    case PacketKind::kRoutingControl: stats_.on_routing_tx(frame.size_bytes()); break;
    case PacketKind::kArp: stats_.on_arp_tx(); break;
  }
}

void WifiMac::transmit_current() {
  MANET_ASSERT(current_.has_value());
  if (trx_.transmitting()) {
    // We are mid-way through sending a CTS/ACK response; try again shortly.
    difs_ev_ = sim_.schedule(cfg_.slot, [this] { medium_check(); });
    return;
  }
  const PhyConfig& phy = trx_.config();
  Packet& p = *current_;

  if (p.mac.dst == kBroadcast) {
    p.mac.duration = SimTime::zero();
    count_tx(p);
    const SimTime air = trx_.transmit(p);
    // No ACK for broadcast: the exchange completes when the air clears.
    // Tracked in timeout_ev_ (free on this path) so reset() can cancel it
    // if the node crashes mid-broadcast.
    timeout_ev_ = sim_.schedule(air, [this] { finish_current(true); });
    return;
  }

  const bool rts = cfg_.use_rts && p.size_bytes() >= cfg_.rts_threshold;
  if (rts) {
    const SimTime cts_air = phy.airtime(kMacCtsBytes);
    const SimTime data_air = phy.airtime(p.size_bytes());
    const SimTime ack_air = phy.airtime(kMacAckBytes);
    Packet rts_frame;
    rts_frame.mac.type = MacFrameType::kRts;
    rts_frame.mac.src = trx_.id();
    rts_frame.mac.dst = p.mac.dst;
    rts_frame.mac.duration = 3 * cfg_.sifs + cts_air + data_air + ack_air;
    count_tx(rts_frame);
    const SimTime rts_air = trx_.transmit(rts_frame);
    state_ = State::kWaitCts;
    timeout_ev_ = sim_.schedule(
        rts_air + cfg_.sifs + cts_air + 2 * phy.max_propagation() + kTimeoutMargin,
        [this] { cts_timeout(); });
  } else {
    transmit_data_frame();
  }
}

void WifiMac::transmit_data_frame() {
  MANET_ASSERT(current_.has_value());
  if (trx_.transmitting()) {
    // Extremely rare: a response transmission landed on the same instant.
    handle_retry(!cfg_.use_rts);
    return;
  }
  const PhyConfig& phy = trx_.config();
  Packet p = *current_;
  p.mac.retry = (short_retries_ + long_retries_) > 0;
  const SimTime ack_air = phy.airtime(kMacAckBytes);
  p.mac.duration = cfg_.sifs + ack_air;
  count_tx(p);
  const SimTime air = trx_.transmit(p);
  state_ = State::kWaitAck;
  timeout_ev_ = sim_.schedule(
      air + cfg_.sifs + ack_air + 2 * phy.max_propagation() + kTimeoutMargin,
      [this] { ack_timeout(); });
}

void WifiMac::schedule_response(Packet frame) {
  sim_.schedule(cfg_.sifs, [this, frame] {
    if (trx_.transmitting()) return;  // lost the race to our own transmission
    if (trx_.down()) return;          // crashed during the SIFS gap
    count_tx(frame);
    trx_.transmit(frame);
  });
}

// ---------------------------------------------------------------------------
// Exchange outcomes
// ---------------------------------------------------------------------------

void WifiMac::cts_timeout() {
  if (state_ != State::kWaitCts) return;
  handle_retry(/*short_stage=*/true);
}

void WifiMac::ack_timeout() {
  if (state_ != State::kWaitAck) return;
  // Data sent under RTS protection counts against the long retry limit; data
  // sent bare counts against the short one.
  const bool protected_by_rts =
      cfg_.use_rts && current_->size_bytes() >= cfg_.rts_threshold;
  handle_retry(/*short_stage=*/!protected_by_rts);
}

void WifiMac::handle_retry(bool short_stage) {
  MANET_ASSERT(current_.has_value());
  int& counter = short_stage ? short_retries_ : long_retries_;
  const int limit = short_stage ? cfg_.short_retry_limit : cfg_.long_retry_limit;
  ++counter;
  if (counter >= limit) {
    finish_current(false);
    return;
  }
  cw_ = std::min(cw_ * 2 + 1, cfg_.cw_max);
  backoff_slots_ = static_cast<std::uint32_t>(rng_.uniform_int(0, cw_));
  state_ = State::kContend;
  medium_check();
}

void WifiMac::finish_current(bool success) {
  MANET_ASSERT(current_.has_value());
  sim_.cancel(difs_ev_);
  sim_.cancel(nav_ev_);
  sim_.cancel(backoff_ev_);
  sim_.cancel(timeout_ev_);
  Packet done = std::move(*current_);
  current_.reset();
  short_retries_ = long_retries_ = 0;
  cw_ = cfg_.cw_min;
  // Post-transmission backoff, for fairness between consecutive frames.
  backoff_slots_ = static_cast<std::uint32_t>(rng_.uniform_int(0, cfg_.cw_min));
  state_ = State::kIdle;
  if (!success && listener_ != nullptr) {
    // 802.11 link-layer feedback: the routing protocol decides whether to
    // salvage, re-route, or drop (and does the drop accounting).
    listener_->mac_link_failure(done, done.mac.dst);
  }
  start_service();
}

// ---------------------------------------------------------------------------
// Receive side
// ---------------------------------------------------------------------------

void WifiMac::phy_rx(const Packet& f) {
  const NodeId me = trx_.id();
  switch (f.mac.type) {
    case MacFrameType::kRts: {
      if (f.mac.dst != me) {
        update_nav(f.mac.duration);
        return;
      }
      // Respond only when not engaged in our own exchange and the NAV allows.
      if ((state_ == State::kIdle || state_ == State::kContend) && sim_.now() >= nav_until_) {
        const SimTime cts_air = trx_.config().airtime(kMacCtsBytes);
        Packet cts;
        cts.mac.type = MacFrameType::kCts;
        cts.mac.src = me;
        cts.mac.dst = f.mac.src;
        const SimTime remaining = f.mac.duration - cfg_.sifs - cts_air;
        cts.mac.duration = std::max(remaining, SimTime::zero());
        schedule_response(cts);
      }
      return;
    }
    case MacFrameType::kCts: {
      if (f.mac.dst == me) {
        if (state_ == State::kWaitCts) {
          sim_.cancel(timeout_ev_);
          state_ = State::kSendData;
          sim_.schedule(cfg_.sifs, [this] {
            if (state_ == State::kSendData) transmit_data_frame();
          });
        }
      } else {
        update_nav(f.mac.duration);
      }
      return;
    }
    case MacFrameType::kData: {
      if (f.mac.dst == me) {
        Packet ack;
        ack.mac.type = MacFrameType::kAck;
        ack.mac.src = me;
        ack.mac.dst = f.mac.src;
        ack.mac.duration = SimTime::zero();
        schedule_response(ack);  // ACK even duplicates, else the sender loops
        auto [it, inserted] = rx_last_seq_.try_emplace(f.mac.src, f.mac.seq);
        const bool dup = !inserted && f.mac.retry && it->second == f.mac.seq;
        it->second = f.mac.seq;
        if (!dup && listener_ != nullptr) listener_->mac_deliver(f);
      } else if (f.mac.dst == kBroadcast) {
        if (listener_ != nullptr) listener_->mac_deliver(f);
      } else {
        update_nav(f.mac.duration);
      }
      return;
    }
    case MacFrameType::kAck: {
      if (f.mac.dst == me) {
        if (state_ == State::kWaitAck) {
          sim_.cancel(timeout_ev_);
          finish_current(true);
        }
      } else {
        update_nav(f.mac.duration);
      }
      return;
    }
  }
}

}  // namespace manet

// Per-node radio transceiver.
//
// Models a half-duplex radio with carrier sensing and receiver-side collision
// behaviour:
//   * the medium is "busy" whenever the node is transmitting or any energy
//     from transmissions within carrier-sense range is arriving;
//   * two receptions overlapping in time at a receiver corrupt each other
//     (no capture effect — a deliberately pessimistic simplification noted in
//     DESIGN.md);
//   * transmitting while a frame is arriving corrupts that frame
//     (half-duplex).
//
// Event-lean reception. A decodable arrival costs two events, rx_start and
// rx_end, because its delivery happens at rx_end. A carrier-only arrival
// (heard, not decodable) costs only rx_start: there it reserves the
// sequence number its end event would have had, and the transceiver keeps
// the latest such end key. The carrier is active while that key lies after
// the dispatching event's key, so busy tests and the collision rule resolve
// same-instant ties exactly as a real end event would. Its rx energy goes
// to the StatsCollector's end-key ledger.
//
// The MAC observes the medium through medium_busy()/idle_since() and, only
// while it has subscribed with listen_edges(true), through busy/idle edges.
// A subscriber hears a carrier's busy -> idle edge from one event scheduled
// at a reserved end key; if a later arrival has extended the carrier by the
// time it fires, it re-arms at the new end. Frames that survive uncorrupted
// reach the listener through phy_rx() always.
#pragma once

#include <algorithm>
#include <cstdint>
#include <memory>
#include <vector>

#include "core/simulator.hpp"
#include "packet/packet.hpp"
#include "phy/phy_config.hpp"
#include "stats/stats.hpp"

namespace manet {

class Channel;

/// Callbacks the MAC registers with its transceiver.
class PhyListener {
 public:
  virtual ~PhyListener() = default;
  /// The medium transitioned idle -> busy (only while listen_edges is on).
  virtual void phy_busy_start() = 0;
  /// The medium transitioned busy -> idle (only while listen_edges is on).
  virtual void phy_busy_end() = 0;
  /// A frame arrived intact.
  virtual void phy_rx(const Packet& frame) = 0;
};

class Transceiver {
 public:
  Transceiver(Simulator& sim, const PhyConfig& cfg, NodeId id);

  void attach_channel(Channel* ch) { channel_ = ch; }
  void set_listener(PhyListener* l) { listener_ = l; }
  /// Optional energy/collision accounting sink.
  void set_stats(StatsCollector* s) { stats_ = s; }
  [[nodiscard]] NodeId id() const { return id_; }
  [[nodiscard]] const PhyConfig& config() const { return cfg_; }

  /// True while transmitting or while any in-range energy is arriving.
  [[nodiscard]] bool medium_busy() const {
    return transmitting_ || !active_.empty() || carrier_active();
  }
  [[nodiscard]] bool transmitting() const { return transmitting_; }

  /// Start of the current idle period: the latest busy -> idle edge. Only
  /// meaningful while !medium_busy().
  [[nodiscard]] SimTime idle_since() const {
    return std::max(last_idle_edge_, carrier_end_.time);
  }

  /// Deliver busy/idle edges to the listener (on) or stop (off). Turning it
  /// on mid-carrier arms the edge at the carrier's end.
  void listen_edges(bool on);

  /// Start transmitting `frame`; the caller (MAC) guarantees its own access
  /// rules. Returns the time on air.
  SimTime transmit(const Packet& frame);

  // -- called by the Channel --------------------------------------------------
  /// Energy (and possibly a decodable frame) starts arriving for `airtime`.
  /// `frame` is the transmission's shared read-only copy, held (not copied)
  /// until rx_end hands it to the listener; null for carrier-only arrivals
  /// (transmitter beyond rx range but within carrier-sense range).
  void rx_start(std::shared_ptr<const Packet> frame, SimTime airtime);

  // -- fault injection --------------------------------------------------------
  /// Power the radio down/up. While down, new arrivals are ignored and any
  /// reception already in flight is corrupted; its energy still counts.
  void set_down(bool down);
  [[nodiscard]] bool down() const { return down_; }

  // -- introspection for tests -----------------------------------------------
  [[nodiscard]] std::uint64_t frames_received() const { return frames_rx_; }
  [[nodiscard]] std::uint64_t frames_corrupted() const { return frames_corrupt_; }

 private:
  /// A decodable arrival in flight (carrier-only ones leave no entry).
  struct ActiveRx {
    std::uint64_t key;
    SimTime airtime;
    std::shared_ptr<const Packet> frame;
    bool corrupted;
  };

  /// Some carrier-only arrival has not ended at the dispatching event's key.
  [[nodiscard]] bool carrier_active() const { return sim_.current_key() < carrier_end_; }

  void carrier_start(SimTime airtime);
  void rx_end(std::uint64_t key);
  void tx_end();
  void carrier_idle_edge();
  void arm_idle_edge();
  void update_busy_edges(bool was_busy);

  Simulator& sim_;
  PhyConfig cfg_;
  NodeId id_;
  Channel* channel_ = nullptr;
  PhyListener* listener_ = nullptr;
  StatsCollector* stats_ = nullptr;

  bool transmitting_ = false;
  bool down_ = false;
  bool listening_ = false;
  std::vector<ActiveRx> active_;
  EventKey carrier_end_{};  ///< latest carrier-only end key
  SimTime last_idle_edge_ = SimTime::zero();  ///< latest edge seen at an event
  EventId idle_edge_ev_ = kInvalidEventId;  ///< carrier_idle_edge() at carrier_end_
  std::uint64_t next_key_ = 0;
  std::uint64_t frames_rx_ = 0;
  std::uint64_t frames_corrupt_ = 0;
};

}  // namespace manet

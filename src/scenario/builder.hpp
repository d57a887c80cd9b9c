// Fluent scenario construction with build-time validation.
//
// ScenarioConfig is a plain struct, and poking its fields directly defers
// every mistake (negative speed, a fault window past the end of the run, a
// traffic start after the run ends) to whatever assertion happens to trip
// first mid-build — or to silently nonsensical results. ScenarioBuilder is
// the supported construction path: chain setters, then build() validates the
// whole config at once and reports the offending values in the contract
// message, or run() to validate and execute in one step.
//
//   const ScenarioResult r = ScenarioBuilder()
//                                .protocol("DSR")
//                                .nodes(50)
//                                .area(1500, 300)
//                                .pause(seconds(30))
//                                .run();
//
// Every setter has a with() escape hatch for knobs too niche to earn one.
// Direct aggregate construction of ScenarioConfig outside src/scenario/ is
// flagged by manet_lint (scenario-config-aggregate).
#pragma once

#include <functional>
#include <string>
#include <string_view>
#include <utility>

#include "scenario/scenario.hpp"

namespace manet {

class ScenarioBuilder {
 public:
  /// Starts from the Table-I defaults of ScenarioConfig.
  ScenarioBuilder() = default;

  /// Start from an existing config (migration path for code that still
  /// assembles ScenarioConfig by hand, and for sweeping variations of a
  /// validated base).
  [[nodiscard]] static ScenarioBuilder from(const ScenarioConfig& cfg);

  // -- protocol ---------------------------------------------------------------
  ScenarioBuilder& protocol(Protocol p);
  /// By registry name, case-insensitive ("dsr" matches "DSR"). Unknown names
  /// are reported at build() with the full list of registered protocols.
  ScenarioBuilder& protocol(std::string_view name);

  // -- topology & mobility ----------------------------------------------------
  ScenarioBuilder& seed(std::uint64_t seed);
  ScenarioBuilder& nodes(std::uint32_t count);
  ScenarioBuilder& area(double width_m, double height_m);
  ScenarioBuilder& static_nodes(bool on = true);
  ScenarioBuilder& mobility(MobilityKind kind);
  ScenarioBuilder& speed(double v_min_mps, double v_max_mps);
  ScenarioBuilder& pause(SimTime pause);

  // -- traffic ----------------------------------------------------------------
  ScenarioBuilder& connections(std::uint32_t count);
  ScenarioBuilder& payload(std::size_t bytes);
  ScenarioBuilder& traffic(TrafficKind kind);
  ScenarioBuilder& cbr_interval(SimTime interval);
  /// Reliable transport between app and net (closed-loop traffic); the
  /// config's RTO/cwnd/buffer bounds are validated at build().
  ScenarioBuilder& transport(const TransportConfig& transport);

  // -- run shape --------------------------------------------------------------
  ScenarioBuilder& duration(SimTime duration);
  /// Compatibility shim, not a knob: the simulator has one executive, so
  /// the only accepted count is 1 and there is no config field behind it.
  /// It exists only because the frozen benchmark driver
  /// (perfbench/src/main.cpp) still calls shards(1); it goes in the next
  /// change to that benchmark.
  ScenarioBuilder& shards(std::uint32_t count);
  ScenarioBuilder& fault(const FaultConfig& fault);
  ScenarioBuilder& trace(std::string path);
  ScenarioBuilder& measure_connectivity(bool on);

  // -- stack ------------------------------------------------------------------
  ScenarioBuilder& phy(const PhyConfig& phy);
  ScenarioBuilder& mac(const MacConfig& mac);
  ScenarioBuilder& frame_loss(double rate);
  /// Urban street-canyon shadowing (see PhyConfig): NLOS pairs decode only
  /// within `nlos_range_m` and suffer an extra `nlos_loss` probability of
  /// loss. `street_width_m` = 0 turns the model off. Usually combined with
  /// mobility(MobilityKind::kManhattan) — see urban_scenario().
  ScenarioBuilder& urban(double street_width_m, double nlos_range_m = 75.0,
                         double nlos_loss = 0.0);

  /// Escape hatch for knobs without a dedicated setter (per-protocol config
  /// blocks, mobility-model extras). Runs immediately on the staged config.
  ScenarioBuilder& with(const std::function<void(ScenarioConfig&)>& fn);

  /// Validate the staged config as a whole and return it. Violations fail
  /// the MANET_CONTRACT with the offending values in the message.
  [[nodiscard]] ScenarioConfig build() const;

  /// build() and run the scenario once.
  [[nodiscard]] ScenarioResult run() const;

 private:
  ScenarioConfig cfg_;
  std::string protocol_name_;  ///< deferred by-name lookup; resolved in build()
};

/// The urban (Manhattan-grid) scenario family: street-constrained mobility
/// over square city blocks with street-canyon shadowing, at constant density
/// (~50 nodes/km², the paper's 50 nodes over 1 km²) so the area grows with
/// the node count and N is the only free variable when sweeping city size.
/// Flow count scales gently (10 flows up to 1k nodes, then +1 per 100).
/// Chain protocol()/seed()/duration() onto the returned builder;
/// every registered protocol runs the family unchanged.
[[nodiscard]] ScenarioBuilder urban_scenario(std::uint32_t nodes);

}  // namespace manet

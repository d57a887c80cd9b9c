// The scenario contract: every rule a ScenarioConfig must satisfy before a
// Scenario can be built from it, stated once.
//
// validate() is the single place a config contract lives. Every consumer
// renders its result its own way: ScenarioBuilder::build() and the Scenario
// constructor abort on the first violation (expect_valid), the spec loader
// anchors each one at the offending value's file:line, and `manetsim run`
// re-checks cells after its --duration / MANET_BENCH_DURATION overrides.
//
// Paths use the scenario DSL's key spelling ("nodes", "duration_s",
// "radio.frame_loss_rate", "transport.cwnd_init"); fields the DSL does not
// expose use their C++ field name ("gauss_markov.alpha"). Single-field
// messages read "must be <range>, got <value>" in the key's unit.
//
// What is checked:
//   * every single-field range, whether or not its section is enabled;
//   * the preconditions the mobility models, traffic sources and fault plan
//     that Scenario::build() constructs place on config values;
//   * cross-field contracts, only when their section is enabled (mobile
//     nodes, traffic flows, urban shadowing, transport, fault injection).
// A clean config allocates and formats nothing.
#pragma once

#include <string>
#include <vector>

#include "scenario/scenario.hpp"

namespace manet {

/// One broken rule: where (DSL key path) and what.
struct Violation {
  std::string path;
  std::string message;
};

/// Every violated rule of `cfg`, in a fixed order; empty when valid.
[[nodiscard]] std::vector<Violation> validate(const ScenarioConfig& cfg);

/// Contract-abort on the first violation, rendered "path: message".
void expect_valid(const ScenarioConfig& cfg);

}  // namespace manet

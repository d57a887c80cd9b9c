#include "scenario/validate.hpp"

#include <cstdarg>
#include <cstdio>

#include "core/assert.hpp"

namespace manet {

namespace {

/// Violation sink. Nothing is formatted or allocated unless a rule fails.
class Rules {
 public:
  explicit Rules(std::vector<Violation>& out) : out_(out) {}

  /// Single-field range, in the DSL wording: "must be <range>, got <value>".
  void range(bool ok, const char* path, const char* range, double got) {
    if (!ok) fail(path, "must be %s, got %g", range, got);
  }

#if defined(__GNUC__) || defined(__clang__)
  __attribute__((format(printf, 3, 4)))
#endif
  void fail(const char* path, const char* fmt, ...) {
    char buf[256];
    std::va_list args;
    va_start(args, fmt);
    std::vsnprintf(buf, sizeof buf, fmt, args);
    va_end(args);
    out_.push_back(Violation{path, buf});
  }

 private:
  std::vector<Violation>& out_;
};

bool in_unit(double x) { return x >= 0.0 && x <= 1.0; }
bool in_unit_open(double x) { return x >= 0.0 && x < 1.0; }

void single_field_ranges(Rules& r, const ScenarioConfig& c) {
  const SimTime zero = SimTime::zero();
  r.range(c.num_nodes >= 2, "nodes", ">= 2", c.num_nodes);
  r.range(c.area.width > 0.0, "area_m[0]", "> 0", c.area.width);
  r.range(c.area.height > 0.0, "area_m[1]", "> 0", c.area.height);
  r.range(c.duration > zero, "duration_s", "> 0", c.duration.sec());

  r.range(c.v_min >= 0.0, "mobility.v_min_mps", ">= 0", c.v_min);
  r.range(c.v_max >= 0.0, "mobility.v_max_mps", ">= 0", c.v_max);
  r.range(c.pause >= zero, "mobility.pause_s", ">= 0", c.pause.sec());
  r.range(c.mobility_warmup >= zero, "mobility.warmup_s", ">= 0", c.mobility_warmup.sec());
  r.range(c.manhattan.block > 0.0, "mobility.block_m", "> 0", c.manhattan.block);
  r.range(in_unit(c.manhattan.p_turn), "mobility.p_turn", "in [0, 1]", c.manhattan.p_turn);
  r.range(in_unit(c.gauss_markov.alpha), "gauss_markov.alpha", "in [0, 1]",
          c.gauss_markov.alpha);
  r.range(c.gauss_markov.step > zero, "gauss_markov.step", "> 0", c.gauss_markov.step.sec());

  r.range(c.payload_bytes >= 1, "traffic.payload_bytes", ">= 1",
          static_cast<double>(c.payload_bytes));
  r.range(c.cbr_interval > zero, "traffic.interval_ms", "> 0", c.cbr_interval.ms());
  r.range(c.cbr_start >= zero, "traffic.start_s", ">= 0", c.cbr_start.sec());
  r.range(c.cbr_start_window >= zero, "traffic.start_window_s", ">= 0",
          c.cbr_start_window.sec());
  r.range(c.onoff_burst_mean > zero, "traffic.burst_mean_s", "> 0", c.onoff_burst_mean.sec());
  r.range(c.onoff_idle_mean > zero, "traffic.idle_mean_s", "> 0", c.onoff_idle_mean.sec());

  const PhyConfig& p = c.phy;
  r.range(p.data_rate_bps > 0.0, "radio.data_rate_bps", "> 0", p.data_rate_bps);
  r.range(p.rx_range_m > 0.0, "radio.rx_range_m", "> 0", p.rx_range_m);
  r.range(p.cs_range_m > 0.0, "radio.cs_range_m", "> 0", p.cs_range_m);
  r.range(in_unit_open(p.frame_loss_rate), "radio.frame_loss_rate", "in [0, 1)",
          p.frame_loss_rate);
  r.range(c.mac.ifq_capacity >= 1, "mac.ifq_capacity", ">= 1",
          static_cast<double>(c.mac.ifq_capacity));
  r.range(p.street_width_m >= 0.0, "urban.street_width_m", ">= 0", p.street_width_m);
  r.range(p.nlos_rx_range_m > 0.0, "urban.nlos_range_m", "> 0", p.nlos_rx_range_m);
  r.range(in_unit_open(p.nlos_loss_rate), "urban.nlos_loss", "in [0, 1)", p.nlos_loss_rate);

  const FaultConfig& f = c.fault;
  r.range(f.crash_rate >= 0.0, "fault.crash_rate", ">= 0", f.crash_rate);
  r.range(f.downtime_mean > zero, "fault.downtime_mean_s", "> 0", f.downtime_mean.sec());
  r.range(f.link_blackouts >= 0, "fault.link_blackouts", ">= 0", f.link_blackouts);
  r.range(f.blackout_mean > zero, "fault.blackout_mean_s", "> 0", f.blackout_mean.sec());
  r.range(in_unit(f.corrupt_rate), "fault.corrupt_rate", "in [0, 1]", f.corrupt_rate);
  r.range(f.corrupt_from >= zero, "fault.corrupt_from_s", ">= 0", f.corrupt_from.sec());
  r.range(f.corrupt_until >= zero, "fault.corrupt_until_s", ">= 0", f.corrupt_until.sec());
  r.range(in_unit(f.partition_frac), "fault.partition_frac", "in [0, 1]", f.partition_frac);
  r.range(f.partition_from >= zero, "fault.partition_from_s", ">= 0", f.partition_from.sec());
  r.range(f.partition_until >= zero, "fault.partition_until_s", ">= 0",
          f.partition_until.sec());
  r.range(f.window_from >= zero, "fault.window_from_s", ">= 0", f.window_from.sec());

  const TransportConfig& t = c.transport;
  r.range(t.rto_initial > zero, "transport.rto_initial_ms", "> 0", t.rto_initial.ms());
  r.range(t.rto_min > zero, "transport.rto_min_ms", "> 0", t.rto_min.ms());
  r.range(t.rto_max > zero, "transport.rto_max_ms", "> 0", t.rto_max.ms());
  r.range(t.cwnd_init >= 1, "transport.cwnd_init", ">= 1", t.cwnd_init);
  r.range(t.cwnd_max >= 1, "transport.cwnd_max", ">= 1", t.cwnd_max);
  r.range(t.max_retx >= 1, "transport.max_retx", ">= 1", t.max_retx);
  r.range(t.buffer_packets >= 1, "transport.buffer_packets", ">= 1", t.buffer_packets);
}

/// The mobility models' own constructor preconditions, as Scenario::build()
/// derives each model's config from the scenario's speed and area fields.
void mobility_contracts(Rules& r, const ScenarioConfig& c) {
  if (c.v_max < c.v_min) {
    r.fail("mobility.v_max_mps", "need 0 <= v_min <= v_max, got v_min=%g v_max=%g m/s", c.v_min,
           c.v_max);
  }
  switch (c.mobility) {
    case MobilityKind::kRandomWaypoint:
    case MobilityKind::kRandomWalk:
      if (c.v_min <= 0.0) {
        r.fail("mobility.v_min_mps", "must be > 0 for %s mobility, got %g",
               c.mobility == MobilityKind::kRandomWalk ? "walk" : "waypoint", c.v_min);
      }
      break;
    case MobilityKind::kGaussMarkov:
      if (c.v_min + c.v_max <= 0.0) {
        r.fail("mobility.v_max_mps",
               "gauss-markov mobility needs a positive mean speed, got v_min=%g v_max=%g m/s",
               c.v_min, c.v_max);
      }
      break;
    case MobilityKind::kManhattan:
      // Street speeds are floored at 0.5 m/s (see Scenario::build()).
      if (c.v_max < 0.5) {
        r.fail("mobility.v_max_mps", "must be >= 0.5 for manhattan mobility, got %g", c.v_max);
      }
      if (c.area.width < c.manhattan.block || c.area.height < c.manhattan.block) {
        r.fail("area_m",
               "manhattan mobility needs at least one %g m block on each side, got %g x %g m",
               c.manhattan.block, c.area.width, c.area.height);
      }
      break;
  }
}

void transport_contracts(Rules& r, const TransportConfig& t) {
  if (!(t.rto_min > SimTime::zero() && t.rto_min <= t.rto_initial &&
        t.rto_initial <= t.rto_max)) {
    r.fail("transport.rto_min_ms",
           "transport rto bounds need 0 < rto_min <= rto_initial <= rto_max, got min=%.3fs "
           "initial=%.3fs max=%.3fs",
           t.rto_min.sec(), t.rto_initial.sec(), t.rto_max.sec());
  }
  if (!(t.cwnd_init >= 1 && t.cwnd_init <= t.cwnd_max)) {
    r.fail("transport.cwnd_init",
           "transport cwnd needs 1 <= cwnd_init <= cwnd_max, got init=%u max=%u", t.cwnd_init,
           t.cwnd_max);
  }
  if (t.buffer_packets < t.cwnd_max) {
    r.fail("transport.buffer_packets",
           "transport.buffer_packets must be >= cwnd_max, got buffer=%u cwnd_max=%u",
           t.buffer_packets, t.cwnd_max);
  }
}

void fault_contracts(Rules& r, const FaultConfig& f, SimTime duration) {
  const double end = duration.sec();
  if (f.window_from >= duration) {
    r.fail("fault.window_from_s", "fault window opens at %.3fs, after the run ends at %.3fs",
           f.window_from.sec(), end);
  }
  // Explicit windows must open inside the run and close after they open (a
  // zero `until` means "until end of run").
  if (f.corrupt_rate > 0.0) {
    if (f.corrupt_from >= duration) {
      r.fail("fault.corrupt_from_s",
             "corruption window opens at %.3fs, after the run ends at %.3fs",
             f.corrupt_from.sec(), end);
    }
    if (f.corrupt_until != SimTime::zero() && f.corrupt_until <= f.corrupt_from) {
      r.fail("fault.corrupt_until_s", "corruption window [%.3fs, %.3fs) is empty",
             f.corrupt_from.sec(), f.corrupt_until.sec());
    }
  }
  if (f.partition) {
    if (f.partition_from >= duration) {
      r.fail("fault.partition_from_s", "partition opens at %.3fs, after the run ends at %.3fs",
             f.partition_from.sec(), end);
    }
    if (f.partition_until != SimTime::zero() && f.partition_until <= f.partition_from) {
      r.fail("fault.partition_until_s", "partition window [%.3fs, %.3fs) is empty",
             f.partition_from.sec(), f.partition_until.sec());
    }
  }
}

}  // namespace

std::vector<Violation> validate(const ScenarioConfig& cfg) {
  std::vector<Violation> out;
  Rules r(out);
  single_field_ranges(r, cfg);

  // Cross-field contracts apply only where their section is in use.
  if (!cfg.static_nodes) mobility_contracts(r, cfg);
  if (cfg.num_connections > 0 && cfg.cbr_start > cfg.duration) {
    r.fail("traffic.start_s", "traffic starts at %.3fs, after the run ends at %.3fs",
           cfg.cbr_start.sec(), cfg.duration.sec());
  }
  if (cfg.phy.urban() && cfg.phy.nlos_rx_range_m > cfg.phy.rx_range_m) {
    r.fail("urban.nlos_range_m", "nlos_rx_range_m must be in (0, rx_range], got %g (rx_range %g)",
           cfg.phy.nlos_rx_range_m, cfg.phy.rx_range_m);
  }
  if (cfg.transport.enabled) transport_contracts(r, cfg.transport);
  if (cfg.fault.enabled()) fault_contracts(r, cfg.fault, cfg.duration);
  return out;
}

void expect_valid(const ScenarioConfig& cfg) {
  const std::vector<Violation> v = validate(cfg);
  MANET_EXPECTS_MSG(v.empty(), "%s: %s", v.front().path.c_str(), v.front().message.c_str());
}

}  // namespace manet

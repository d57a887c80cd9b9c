#include "scenario/spec.hpp"

#include <cmath>
#include <cstdio>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "scenario/builder.hpp"

namespace manet::spec {

namespace {

using json::Value;

/// %g rendering, matching the bench label convention and the builder's
/// contract messages.
std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

std::string fmt_s(double seconds) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%.3f", seconds);
  return buf;
}

/// "AODV, DSR, ..." for the unknown-protocol message (same wording as
/// ScenarioBuilder::build()).
std::string registered_names() {
  std::ostringstream os;
  bool first = true;
  for (const routing::ProtocolEntry& e : protocol_registry()) {
    os << (first ? "" : ", ") << e.name;
    first = false;
  }
  return os.str();
}

/// Error sink + the typed-accessor helpers every section walker shares.
/// Every accessor that fails records a diagnostic naming the key, the
/// expectation, and the offending value, anchored at the value's source line.
class Checker {
 public:
  explicit Checker(std::vector<Error>& errs) : errs_(errs) {}

  void fail(const Value& at, const std::string& key, std::string msg) {
    errs_.push_back(Error{at.line, key, std::move(msg)});
  }
  void fail_at(int line, const std::string& key, std::string msg) {
    errs_.push_back(Error{line, key, std::move(msg)});
  }

  bool expect_kind(const Value& v, Value::Kind k, const std::string& key) {
    if (v.kind == k) return true;
    fail(v, key,
         std::string("expected ") + Value::kind_name(k) + ", got " + Value::kind_name(v.kind));
    return false;
  }

  bool num(const Value& v, const std::string& key, double& out) {
    if (!expect_kind(v, Value::Kind::kNumber, key)) return false;
    out = v.number;
    return true;
  }

  bool str(const Value& v, const std::string& key, std::string& out) {
    if (!expect_kind(v, Value::Kind::kString, key)) return false;
    out = v.str;
    return true;
  }

  bool boolean(const Value& v, const std::string& key, bool& out) {
    if (!expect_kind(v, Value::Kind::kBool, key)) return false;
    out = v.boolean;
    return true;
  }

  bool integer(const Value& v, const std::string& key, long long& out) {
    double x = 0.0;
    if (!num(v, key, x)) return false;
    if (std::floor(x) != x || std::abs(x) > 1e15) {
      fail(v, key, "must be an integer, got " + fmt_g(x));
      return false;
    }
    out = static_cast<long long>(x);
    return true;
  }

  /// Range gate: on failure emits "must be <constraint>, got <value>".
  bool require(bool cond, const Value& v, const std::string& key, const std::string& constraint,
               double got) {
    if (cond) return true;
    fail(v, key, "must be " + constraint + ", got " + fmt_g(got));
    return false;
  }

 private:
  std::vector<Error>& errs_;
};

// -- section walkers ---------------------------------------------------------
// One function per schema object; each dispatches over its known keys and
// reports anything else as an unknown key naming the accepted set, so typos
// fail loudly instead of silently running the default.

void apply_mobility(Checker& c, const Value& o, const std::string& path, ScenarioConfig& cfg) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  for (const auto& [k, v] : o.object) {
    const std::string p = path + "." + k;
    double x = 0.0;
    if (k == "model") {
      std::string s;
      if (!c.str(v, p, s)) continue;
      if (s == "waypoint") {
        cfg.mobility = MobilityKind::kRandomWaypoint;
      } else if (s == "walk") {
        cfg.mobility = MobilityKind::kRandomWalk;
      } else if (s == "gauss-markov") {
        cfg.mobility = MobilityKind::kGaussMarkov;
      } else if (s == "manhattan") {
        cfg.mobility = MobilityKind::kManhattan;
      } else {
        c.fail(v, p,
               "unknown mobility model \"" + s +
                   "\" (expected: waypoint, walk, gauss-markov, manhattan)");
      }
    } else if (k == "v_min_mps") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) cfg.v_min = x;
    } else if (k == "v_max_mps") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) cfg.v_max = x;
    } else if (k == "pause_s") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) cfg.pause = seconds_f(x);
    } else if (k == "warmup_s") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) {
        cfg.mobility_warmup = seconds_f(x);
      }
    } else if (k == "block_m") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) cfg.manhattan.block = x;
    } else if (k == "p_turn") {
      if (c.num(v, p, x) && c.require(x >= 0.0 && x <= 1.0, v, p, "in [0, 1]", x)) {
        cfg.manhattan.p_turn = x;
      }
    } else {
      c.fail(v, p,
             "unknown key (expected: model, v_min_mps, v_max_mps, pause_s, warmup_s, "
             "block_m, p_turn)");
    }
  }
}

void apply_traffic(Checker& c, const Value& o, const std::string& path, ScenarioConfig& cfg) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  const Value* rate = o.find("rate_pps");
  const Value* interval = o.find("interval_ms");
  if (rate != nullptr && interval != nullptr) {
    c.fail(*interval, path + ".interval_ms", "mutually exclusive with rate_pps");
  }
  for (const auto& [k, v] : o.object) {
    const std::string p = path + "." + k;
    double x = 0.0;
    long long n = 0;
    if (k == "kind") {
      std::string s;
      if (!c.str(v, p, s)) continue;
      if (s == "cbr") {
        cfg.traffic = TrafficKind::kCbr;
      } else if (s == "onoff") {
        cfg.traffic = TrafficKind::kOnOff;
      } else {
        c.fail(v, p, "unknown traffic kind \"" + s + "\" (expected: cbr, onoff)");
      }
    } else if (k == "connections") {
      if (c.integer(v, p, n) && c.require(n >= 0, v, p, ">= 0", static_cast<double>(n))) {
        cfg.num_connections = static_cast<std::uint32_t>(n);
      }
    } else if (k == "payload_bytes") {
      if (c.integer(v, p, n) && c.require(n >= 1, v, p, ">= 1", static_cast<double>(n))) {
        cfg.payload_bytes = static_cast<std::size_t>(n);
      }
    } else if (k == "rate_pps") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) {
        cfg.cbr_interval = seconds_f(1.0 / x);
      }
    } else if (k == "interval_ms") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) {
        cfg.cbr_interval = seconds_f(x / 1000.0);
      }
    } else if (k == "start_s") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) cfg.cbr_start = seconds_f(x);
    } else if (k == "start_window_s") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) {
        cfg.cbr_start_window = seconds_f(x);
      }
    } else if (k == "burst_mean_s") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) {
        cfg.onoff_burst_mean = seconds_f(x);
      }
    } else if (k == "idle_mean_s") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) {
        cfg.onoff_idle_mean = seconds_f(x);
      }
    } else {
      c.fail(v, p,
             "unknown key (expected: kind, connections, payload_bytes, rate_pps, "
             "interval_ms, start_s, start_window_s, burst_mean_s, idle_mean_s)");
    }
  }
}

void apply_radio(Checker& c, const Value& o, const std::string& path, ScenarioConfig& cfg) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  for (const auto& [k, v] : o.object) {
    const std::string p = path + "." + k;
    double x = 0.0;
    if (k == "data_rate_bps") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) cfg.phy.data_rate_bps = x;
    } else if (k == "rx_range_m") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) cfg.phy.rx_range_m = x;
    } else if (k == "cs_range_m") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) cfg.phy.cs_range_m = x;
    } else if (k == "frame_loss_rate") {
      if (c.num(v, p, x) && c.require(x >= 0.0 && x < 1.0, v, p, "in [0, 1)", x)) {
        cfg.phy.frame_loss_rate = x;
      }
    } else {
      c.fail(v, p,
             "unknown key (expected: data_rate_bps, rx_range_m, cs_range_m, frame_loss_rate)");
    }
  }
}

void apply_mac(Checker& c, const Value& o, const std::string& path, ScenarioConfig& cfg) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  for (const auto& [k, v] : o.object) {
    const std::string p = path + "." + k;
    long long n = 0;
    bool b = false;
    if (k == "use_rts") {
      if (c.boolean(v, p, b)) cfg.mac.use_rts = b;
    } else if (k == "rts_threshold_bytes") {
      if (c.integer(v, p, n) && c.require(n >= 0, v, p, ">= 0", static_cast<double>(n))) {
        cfg.mac.rts_threshold = static_cast<std::size_t>(n);
      }
    } else if (k == "ifq_capacity") {
      if (c.integer(v, p, n) && c.require(n >= 1, v, p, ">= 1", static_cast<double>(n))) {
        cfg.mac.ifq_capacity = static_cast<std::size_t>(n);
      }
    } else {
      c.fail(v, p, "unknown key (expected: use_rts, rts_threshold_bytes, ifq_capacity)");
    }
  }
}

void apply_urban(Checker& c, const Value& o, const std::string& path, ScenarioConfig& cfg) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  for (const auto& [k, v] : o.object) {
    const std::string p = path + "." + k;
    double x = 0.0;
    if (k == "street_width_m") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) cfg.phy.street_width_m = x;
    } else if (k == "nlos_range_m") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) cfg.phy.nlos_rx_range_m = x;
    } else if (k == "nlos_loss") {
      if (c.num(v, p, x) && c.require(x >= 0.0 && x < 1.0, v, p, "in [0, 1)", x)) {
        cfg.phy.nlos_loss_rate = x;
      }
    } else {
      c.fail(v, p, "unknown key (expected: street_width_m, nlos_range_m, nlos_loss)");
    }
  }
}

void apply_fault(Checker& c, const Value& o, const std::string& path, ScenarioConfig& cfg) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  FaultConfig& f = cfg.fault;
  for (const auto& [k, v] : o.object) {
    const std::string p = path + "." + k;
    double x = 0.0;
    long long n = 0;
    bool b = false;
    if (k == "crash_rate") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) f.crash_rate = x;
    } else if (k == "downtime_mean_s") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) f.downtime_mean = seconds_f(x);
    } else if (k == "link_blackouts") {
      if (c.integer(v, p, n) && c.require(n >= 0, v, p, ">= 0", static_cast<double>(n))) {
        f.link_blackouts = static_cast<int>(n);
      }
    } else if (k == "blackout_mean_s") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) f.blackout_mean = seconds_f(x);
    } else if (k == "corrupt_rate") {
      if (c.num(v, p, x) && c.require(x >= 0.0 && x <= 1.0, v, p, "in [0, 1]", x)) {
        f.corrupt_rate = x;
      }
    } else if (k == "corrupt_from_s") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) f.corrupt_from = seconds_f(x);
    } else if (k == "corrupt_until_s") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) f.corrupt_until = seconds_f(x);
    } else if (k == "partition") {
      if (c.boolean(v, p, b)) f.partition = b;
    } else if (k == "partition_frac") {
      if (c.num(v, p, x) && c.require(x >= 0.0 && x <= 1.0, v, p, "in [0, 1]", x)) {
        f.partition_frac = x;
      }
    } else if (k == "partition_from_s") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) {
        f.partition_from = seconds_f(x);
      }
    } else if (k == "partition_until_s") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) {
        f.partition_until = seconds_f(x);
      }
    } else if (k == "window_from_s") {
      if (c.num(v, p, x) && c.require(x >= 0.0, v, p, ">= 0", x)) f.window_from = seconds_f(x);
    } else {
      c.fail(v, p,
             "unknown key (expected: crash_rate, downtime_mean_s, link_blackouts, "
             "blackout_mean_s, corrupt_rate, corrupt_from_s, corrupt_until_s, partition, "
             "partition_frac, partition_from_s, partition_until_s, window_from_s)");
    }
  }
}

void apply_transport(Checker& c, const Value& o, const std::string& path, ScenarioConfig& cfg) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  TransportConfig& t = cfg.transport;
  for (const auto& [k, v] : o.object) {
    const std::string p = path + "." + k;
    double x = 0.0;
    long long n = 0;
    bool b = false;
    if (k == "enabled") {
      if (c.boolean(v, p, b)) t.enabled = b;
    } else if (k == "rto_initial_ms") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) {
        t.rto_initial = seconds_f(x / 1000.0);
      }
    } else if (k == "rto_min_ms") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) t.rto_min = seconds_f(x / 1000.0);
    } else if (k == "rto_max_ms") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) t.rto_max = seconds_f(x / 1000.0);
    } else if (k == "cwnd_init") {
      if (c.integer(v, p, n) && c.require(n >= 1, v, p, ">= 1", static_cast<double>(n))) {
        t.cwnd_init = static_cast<std::uint32_t>(n);
      }
    } else if (k == "cwnd_max") {
      if (c.integer(v, p, n) && c.require(n >= 1, v, p, ">= 1", static_cast<double>(n))) {
        t.cwnd_max = static_cast<std::uint32_t>(n);
      }
    } else if (k == "max_retx") {
      if (c.integer(v, p, n) && c.require(n >= 1, v, p, ">= 1", static_cast<double>(n))) {
        t.max_retx = static_cast<std::uint32_t>(n);
      }
    } else if (k == "buffer_packets") {
      if (c.integer(v, p, n) && c.require(n >= 1, v, p, ">= 1", static_cast<double>(n))) {
        t.buffer_packets = static_cast<std::uint32_t>(n);
      }
    } else {
      c.fail(v, p,
             "unknown key (expected: enabled, rto_initial_ms, rto_min_ms, rto_max_ms, "
             "cwnd_init, cwnd_max, max_retx, buffer_packets)");
    }
  }
}

/// The shared settings object: `base` and each explicit cell's `set`.
void apply_settings(Checker& c, const Value& o, const std::string& path, ScenarioConfig& cfg) {
  if (!c.expect_kind(o, Value::Kind::kObject, path)) return;
  for (const auto& [k, v] : o.object) {
    const std::string p = path + "." + k;
    double x = 0.0;
    long long n = 0;
    bool b = false;
    if (k == "protocol") {
      std::string s;
      if (!c.str(v, p, s)) continue;
      const routing::ProtocolEntry* e = protocol_registry().by_name(s);
      if (e == nullptr) {
        c.fail(v, p, "unknown protocol \"" + s + "\" (registered: " + registered_names() + ")");
      } else {
        cfg.protocol = static_cast<Protocol>(e->id);
      }
    } else if (k == "seed") {
      if (c.integer(v, p, n) && c.require(n >= 0, v, p, ">= 0", static_cast<double>(n))) {
        cfg.seed = static_cast<std::uint64_t>(n);
      }
    } else if (k == "nodes") {
      if (c.integer(v, p, n) && c.require(n >= 2, v, p, ">= 2", static_cast<double>(n))) {
        cfg.num_nodes = static_cast<std::uint32_t>(n);
      }
    } else if (k == "area_m") {
      if (!c.expect_kind(v, Value::Kind::kArray, p)) continue;
      if (v.array.size() != 2) {
        c.fail(v, p, "expected [width_m, height_m], got " + std::to_string(v.array.size()) +
                         " element(s)");
        continue;
      }
      double w = 0.0;
      double h = 0.0;
      if (c.num(v.array[0], p + "[0]", w) && c.num(v.array[1], p + "[1]", h) &&
          c.require(w > 0.0, v.array[0], p + "[0]", "> 0", w) &&
          c.require(h > 0.0, v.array[1], p + "[1]", "> 0", h)) {
        cfg.area = Area{w, h};
      }
    } else if (k == "static") {
      if (c.boolean(v, p, b)) cfg.static_nodes = b;
    } else if (k == "duration_s") {
      if (c.num(v, p, x) && c.require(x > 0.0, v, p, "> 0", x)) cfg.duration = seconds_f(x);
    } else if (k == "measure_connectivity") {
      if (c.boolean(v, p, b)) cfg.measure_connectivity = b;
    } else if (k == "trace") {
      std::string s;
      if (c.str(v, p, s)) cfg.trace_path = std::move(s);
    } else if (k == "mobility") {
      apply_mobility(c, v, p, cfg);
    } else if (k == "traffic") {
      apply_traffic(c, v, p, cfg);
    } else if (k == "radio") {
      apply_radio(c, v, p, cfg);
    } else if (k == "mac") {
      apply_mac(c, v, p, cfg);
    } else if (k == "urban") {
      apply_urban(c, v, p, cfg);
    } else if (k == "fault") {
      apply_fault(c, v, p, cfg);
    } else if (k == "transport") {
      apply_transport(c, v, p, cfg);
    } else {
      c.fail(v, p,
             "unknown key (expected: protocol, seed, nodes, area_m, static, duration_s, "
             "measure_connectivity, trace, mobility, traffic, radio, mac, urban, fault, "
             "transport)");
    }
  }
}

// -- sweep axes --------------------------------------------------------------

struct Axis {
  std::string param;           ///< label segment ("pause" -> "AODV/pause:0")
  bool urban_family = false;   ///< values are urban_scenario() node counts
  std::vector<double> values;  ///< validated at parse time; apply is unchecked
};

constexpr const char* kAxisParams = "pause, vmax, nodes, sources, crash, loss, rate";

/// Range-check one axis value at parse time (so a bad value is reported once,
/// not once per protocol).
void check_axis_value(Checker& c, const Axis& a, const Value& v, const std::string& key) {
  const double x = v.number;
  if (a.urban_family) {
    if (std::floor(x) != x || x < 2.0) c.fail(v, key, "must be an integer >= 2, got " + fmt_g(x));
  } else if (a.param == "pause" || a.param == "crash") {
    c.require(x >= 0.0, v, key, ">= 0", x);
  } else if (a.param == "vmax") {
    // <= 0 means "static" (the mobility suite's x = 0 column); any value ok.
  } else if (a.param == "nodes") {
    if (std::floor(x) != x || x < 2.0) c.fail(v, key, "must be an integer >= 2, got " + fmt_g(x));
  } else if (a.param == "sources") {
    if (std::floor(x) != x || x < 0.0) c.fail(v, key, "must be an integer >= 0, got " + fmt_g(x));
  } else if (a.param == "loss") {
    c.require(x >= 0.0 && x < 1.0, v, key, "in [0, 1)", x);
  } else if (a.param == "rate") {
    c.require(x > 0.0, v, key, "> 0", x);
  }
}

/// Copy the urban Manhattan family's derived fields onto `cfg`, reusing
/// urban_scenario() so the city-size math has exactly one home.
void apply_urban_family(ScenarioConfig& cfg, std::uint32_t n) {
  const ScenarioConfig u = urban_scenario(n).build();
  cfg.num_nodes = u.num_nodes;
  cfg.area = u.area;
  cfg.mobility = u.mobility;
  cfg.v_min = u.v_min;
  cfg.v_max = u.v_max;
  cfg.num_connections = u.num_connections;
  cfg.phy.street_width_m = u.phy.street_width_m;
  cfg.phy.nlos_rx_range_m = u.phy.nlos_rx_range_m;
  cfg.phy.nlos_loss_rate = u.phy.nlos_loss_rate;
}

void apply_axis(const Axis& a, double v, ScenarioConfig& cfg) {
  if (a.urban_family) {
    apply_urban_family(cfg, static_cast<std::uint32_t>(v));
  } else if (a.param == "pause") {
    cfg.pause = seconds_f(v);
  } else if (a.param == "vmax") {
    // Mirrors bench::mobility_cell: the 0 column is the static network.
    if (v <= 0.0) {
      cfg.static_nodes = true;
    } else {
      cfg.static_nodes = false;
      cfg.v_max = v;
    }
  } else if (a.param == "nodes") {
    cfg.num_nodes = static_cast<std::uint32_t>(v);
  } else if (a.param == "sources") {
    cfg.num_connections = static_cast<std::uint32_t>(v);
  } else if (a.param == "crash") {
    cfg.fault.crash_rate = v;
  } else if (a.param == "loss") {
    cfg.phy.frame_loss_rate = v;
  } else if (a.param == "rate") {
    // Offered load in packets/s per flow, the paper family's x-axis for the
    // load-collapse figures (same conversion as traffic.rate_pps).
    cfg.cbr_interval = seconds_f(1.0 / v);
  }
}

// -- cross-field contracts ---------------------------------------------------
// The mirror of ScenarioBuilder::build()'s multi-field checks (single-field
// ranges are already enforced at the key sites above), with the builder's
// wording so the two paths diagnose identically. Keeping the mirror complete
// is what lets `manetsim validate` promise a clean exit-2 diagnosis instead
// of the builder's contract abort.
void check_contracts(Checker& c, const ScenarioConfig& cfg, int line, const std::string& where) {
  if (!cfg.static_nodes && cfg.v_max < cfg.v_min) {
    c.fail_at(line, where,
              "need 0 <= v_min <= v_max, got v_min=" + fmt_g(cfg.v_min) +
                  " v_max=" + fmt_g(cfg.v_max) + " m/s");
  }
  if (cfg.num_connections > 0 && cfg.cbr_start > cfg.duration) {
    c.fail_at(line, where,
              "traffic starts at " + fmt_s(cfg.cbr_start.sec()) + "s, after the run ends at " +
                  fmt_s(cfg.duration.sec()) + "s");
  }
  if (cfg.phy.urban() &&
      !(cfg.phy.nlos_rx_range_m > 0.0 && cfg.phy.nlos_rx_range_m <= cfg.phy.rx_range_m)) {
    c.fail_at(line, where,
              "nlos_rx_range_m must be in (0, rx_range], got " + fmt_g(cfg.phy.nlos_rx_range_m) +
                  " (rx_range " + fmt_g(cfg.phy.rx_range_m) + ")");
  }
  if (cfg.transport.enabled) {
    const TransportConfig& t = cfg.transport;
    if (!(t.rto_min > SimTime::zero() && t.rto_min <= t.rto_initial &&
          t.rto_initial <= t.rto_max)) {
      c.fail_at(line, where,
                "transport rto bounds need 0 < rto_min <= rto_initial <= rto_max, got min=" +
                    fmt_s(t.rto_min.sec()) + "s initial=" + fmt_s(t.rto_initial.sec()) +
                    "s max=" + fmt_s(t.rto_max.sec()) + "s");
    }
    if (!(t.cwnd_init >= 1 && t.cwnd_init <= t.cwnd_max)) {
      c.fail_at(line, where,
                "transport cwnd needs 1 <= cwnd_init <= cwnd_max, got init=" +
                    std::to_string(t.cwnd_init) + " max=" + std::to_string(t.cwnd_max));
    }
    if (t.buffer_packets < t.cwnd_max) {
      c.fail_at(line, where,
                "transport.buffer_packets must be >= cwnd_max, got buffer=" +
                    std::to_string(t.buffer_packets) +
                    " cwnd_max=" + std::to_string(t.cwnd_max));
    }
  }
  if (cfg.fault.enabled()) {
    const FaultConfig& f = cfg.fault;
    if (f.window_from >= cfg.duration) {
      c.fail_at(line, where,
                "fault window opens at " + fmt_s(f.window_from.sec()) +
                    "s, after the run ends at " + fmt_s(cfg.duration.sec()) + "s");
    }
    if (f.corrupt_rate > 0.0) {
      if (f.corrupt_from >= cfg.duration) {
        c.fail_at(line, where,
                  "corruption window opens at " + fmt_s(f.corrupt_from.sec()) +
                      "s, after the run ends at " + fmt_s(cfg.duration.sec()) + "s");
      }
      if (f.corrupt_until != SimTime::zero() && f.corrupt_until <= f.corrupt_from) {
        c.fail_at(line, where,
                  "corruption window [" + fmt_s(f.corrupt_from.sec()) + "s, " +
                      fmt_s(f.corrupt_until.sec()) + "s) is empty");
      }
    }
    if (f.partition) {
      if (f.partition_from >= cfg.duration) {
        c.fail_at(line, where,
                  "partition opens at " + fmt_s(f.partition_from.sec()) +
                      "s, after the run ends at " + fmt_s(cfg.duration.sec()) + "s");
      }
      if (f.partition_until != SimTime::zero() && f.partition_until <= f.partition_from) {
        c.fail_at(line, where,
                  "partition window [" + fmt_s(f.partition_from.sec()) + "s, " +
                      fmt_s(f.partition_until.sec()) + "s) is empty");
      }
    }
  }
}

[[nodiscard]] bool valid_name(const std::string& s) {
  if (s.empty()) return false;
  for (const char ch : s) {
    const bool ok = (ch >= 'a' && ch <= 'z') || (ch >= 'A' && ch <= 'Z') ||
                    (ch >= '0' && ch <= '9') || ch == '_' || ch == '-' || ch == '.';
    if (!ok) return false;
  }
  return true;
}

}  // namespace

std::string to_string(const Error& e, const std::string& filename) {
  std::ostringstream os;
  os << filename;
  if (e.line > 0) os << ':' << e.line;
  os << ": ";
  if (!e.key.empty()) os << e.key << ": ";
  os << e.message;
  return os.str();
}

std::string ScenarioSpec::error_report() const {
  std::ostringstream os;
  for (const Error& e : errors) os << to_string(e, filename) << '\n';
  return os.str();
}

ScenarioSpec load_string(const std::string& text, const std::string& filename) {
  ScenarioSpec spec;
  spec.filename = filename;
  Checker c(spec.errors);

  Value root;
  std::string perr;
  if (!json::parse(text, root, perr)) {
    c.fail_at(0, "", perr);
    return spec;
  }
  if (!root.is_object()) {
    c.fail(root, "", std::string("top level must be an object, got ") +
                         Value::kind_name(root.kind));
    return spec;
  }

  ScenarioConfig base;
  const Value* sweep = nullptr;

  for (const auto& [k, v] : root.object) {
    if (k == "name") {
      std::string s;
      if (c.str(v, "name", s)) {
        if (!valid_name(s)) {
          c.fail(v, "name",
                 "must be non-empty [A-Za-z0-9._-] (it keys the results/<name>.* artifacts), "
                 "got \"" +
                     s + "\"");
        } else {
          spec.name = std::move(s);
        }
      }
    } else if (k == "description") {
      std::string s;
      if (c.str(v, "description", s)) spec.description = std::move(s);
    } else if (k == "seeds") {
      long long n = 0;
      if (c.integer(v, "seeds", n) &&
          c.require(n >= 1 && n <= 100000, v, "seeds", "in [1, 100000]",
                    static_cast<double>(n))) {
        spec.seeds = static_cast<int>(n);
      }
    } else if (k == "output") {
      if (!c.expect_kind(v, Value::Kind::kObject, "output")) continue;
      for (const auto& [ok, ov] : v.object) {
        if (ok == "dir") {
          std::string s;
          if (c.str(ov, "output.dir", s)) {
            if (s.empty()) {
              c.fail(ov, "output.dir", "must be a non-empty path");
            } else {
              spec.out_dir = std::move(s);
            }
          }
        } else {
          c.fail(ov, "output." + ok, "unknown key (expected: dir)");
        }
      }
    } else if (k == "base") {
      apply_settings(c, v, "base", base);
    } else if (k == "sweep") {
      sweep = &v;
    } else {
      c.fail(v, k,
             "unknown key (expected: name, description, seeds, output, base, sweep)");
    }
  }

  if (root.find("name") == nullptr) {
    c.fail_at(root.line, "name", "required key is missing");
  }

  // -- sweep expansion -------------------------------------------------------
  // Grid cells: (protocol × axis values) in nested-loop order, protocol
  // outermost — the same order Suite::add_sweep registers them, so a spec's
  // artifact lists its cells exactly like its C++ twin's.
  std::vector<std::pair<std::string, Protocol>> protocols;
  std::vector<Axis> axes;
  struct ExplicitCell {
    std::string label;
    const Value* set = nullptr;
    int line = 0;
  };
  std::vector<ExplicitCell> explicit_cells;
  int sweep_line = root.line;

  if (sweep != nullptr && c.expect_kind(*sweep, Value::Kind::kObject, "sweep")) {
    sweep_line = sweep->line;
    for (const auto& [k, v] : sweep->object) {
      const std::string p = "sweep." + k;
      if (k == "protocols") {
        if (!c.expect_kind(v, Value::Kind::kArray, p)) continue;
        if (v.array.empty()) c.fail(v, p, "must list at least one protocol");
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          const std::string pi = p + "[" + std::to_string(i) + "]";
          std::string s;
          if (!c.str(v.array[i], pi, s)) continue;
          const routing::ProtocolEntry* e = protocol_registry().by_name(s);
          if (e == nullptr) {
            c.fail(v.array[i], pi,
                   "unknown protocol \"" + s + "\" (registered: " + registered_names() + ")");
          } else {
            protocols.emplace_back(e->name, static_cast<Protocol>(e->id));
          }
        }
      } else if (k == "axes") {
        if (!c.expect_kind(v, Value::Kind::kArray, p)) continue;
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          const Value& av = v.array[i];
          const std::string pi = p + "[" + std::to_string(i) + "]";
          if (!c.expect_kind(av, Value::Kind::kObject, pi)) continue;
          Axis axis;
          const Value* values = nullptr;
          for (const auto& [ak, avv] : av.object) {
            const std::string pa = pi + "." + ak;
            if (ak == "param") {
              (void)c.str(avv, pa, axis.param);
            } else if (ak == "values") {
              if (c.expect_kind(avv, Value::Kind::kArray, pa)) values = &avv;
            } else if (ak == "family") {
              std::string s;
              if (c.str(avv, pa, s)) {
                if (s == "urban") {
                  axis.urban_family = true;
                } else {
                  c.fail(avv, pa, "unknown scenario family \"" + s + "\" (expected: urban)");
                }
              }
            } else {
              c.fail(avv, pa, "unknown key (expected: param, values, family)");
            }
          }
          if (axis.param.empty()) {
            c.fail(av, pi, "required key \"param\" is missing");
            continue;
          }
          if (!axis.urban_family && axis.param != "pause" && axis.param != "vmax" &&
              axis.param != "nodes" && axis.param != "sources" && axis.param != "crash" &&
              axis.param != "loss" && axis.param != "rate") {
            c.fail(av, pi + ".param",
                   "unknown sweep param \"" + axis.param + "\" (expected: " + kAxisParams +
                       "; or set \"family\": \"urban\")");
            continue;
          }
          if (values == nullptr || values->array.empty()) {
            c.fail(av, pi, "required key \"values\" must be a non-empty array of numbers");
            continue;
          }
          for (std::size_t j = 0; j < values->array.size(); ++j) {
            const Value& vv = values->array[j];
            const std::string pv = pi + ".values[" + std::to_string(j) + "]";
            if (!c.expect_kind(vv, Value::Kind::kNumber, pv)) continue;
            check_axis_value(c, axis, vv, pv);
            axis.values.push_back(vv.number);
          }
          axes.push_back(std::move(axis));
        }
      } else if (k == "cells") {
        if (!c.expect_kind(v, Value::Kind::kArray, p)) continue;
        for (std::size_t i = 0; i < v.array.size(); ++i) {
          const Value& cv = v.array[i];
          const std::string pi = p + "[" + std::to_string(i) + "]";
          if (!c.expect_kind(cv, Value::Kind::kObject, pi)) continue;
          ExplicitCell cell;
          cell.line = cv.line;
          for (const auto& [ck, cvv] : cv.object) {
            if (ck == "label") {
              std::string s;
              if (c.str(cvv, pi + ".label", s)) {
                if (s.empty()) {
                  c.fail(cvv, pi + ".label", "must be non-empty");
                } else {
                  cell.label = std::move(s);
                }
              }
            } else if (ck == "set") {
              cell.set = &cvv;
            } else {
              c.fail(cvv, pi + "." + ck, "unknown key (expected: label, set)");
            }
          }
          if (cell.label.empty()) {
            c.fail(cv, pi, "required key \"label\" is missing");
            continue;
          }
          explicit_cells.push_back(cell);
        }
      } else {
        c.fail(v, p, "unknown key (expected: protocols, axes, cells)");
      }
    }
  }

  // Default protocol list: the base config's protocol, under its canonical
  // registry name.
  if (protocols.empty() && (sweep == nullptr || sweep->find("protocols") == nullptr)) {
    const routing::ProtocolEntry* e =
        protocol_registry().by_id(static_cast<std::uint8_t>(base.protocol));
    if (e != nullptr) protocols.emplace_back(e->name, base.protocol);
  }

  // Grid: protocol-major, then each axis left to right.
  const bool grid_wanted =
      sweep == nullptr || !axes.empty() || sweep->find("protocols") != nullptr ||
      explicit_cells.empty();
  if (grid_wanted) {
    for (const auto& [pname, penum] : protocols) {
      std::vector<std::pair<std::string, ScenarioConfig>> partial;
      ScenarioConfig cfg = base;
      cfg.protocol = penum;
      partial.emplace_back(pname, cfg);
      for (const Axis& axis : axes) {
        std::vector<std::pair<std::string, ScenarioConfig>> next;
        next.reserve(partial.size() * axis.values.size());
        for (const auto& [label, pcfg] : partial) {
          for (const double v : axis.values) {
            ScenarioConfig ncfg = pcfg;
            apply_axis(axis, v, ncfg);
            next.emplace_back(label + "/" + axis.param + ":" + fmt_g(v), ncfg);
          }
        }
        partial = std::move(next);
      }
      for (auto& [label, pcfg] : partial) {
        spec.cells.push_back(SweepCell{std::move(label), std::move(pcfg)});
      }
    }
  }

  for (const ExplicitCell& cell : explicit_cells) {
    ScenarioConfig cfg = base;
    if (cell.set != nullptr) {
      apply_settings(c, *cell.set, "sweep.cells \"" + cell.label + "\".set", cfg);
    }
    spec.cells.push_back(SweepCell{cell.label, std::move(cfg)});
  }

  if (spec.cells.empty() && spec.errors.empty()) {
    c.fail_at(sweep_line, "sweep", "the spec expands to zero cells");
  }

  // Label uniqueness (SweepResult::find and manet_report key on labels).
  for (std::size_t i = 0; i < spec.cells.size(); ++i) {
    for (std::size_t j = i + 1; j < spec.cells.size(); ++j) {
      if (spec.cells[i].label == spec.cells[j].label) {
        c.fail_at(sweep_line, "sweep",
                  "duplicate cell label \"" + spec.cells[i].label + "\"");
        j = spec.cells.size();  // report each duplicate label once
      }
    }
  }

  // Cross-field contracts per expanded cell.
  for (const SweepCell& cell : spec.cells) {
    check_contracts(c, cell.config, sweep != nullptr ? sweep->line : root.line,
                    "cell \"" + cell.label + "\"");
  }

  // Belt and braces: a clean spec must also satisfy the builder itself. Any
  // divergence here is a loader bug (a contract the mirror above missed) and
  // trips the builder's own MANET_CONTRACT abort with a message naming it.
  if (spec.errors.empty()) {
    for (const SweepCell& cell : spec.cells) {
      (void)ScenarioBuilder::from(cell.config).build();
    }
  }

  return spec;
}

ScenarioSpec load_file(const std::string& path) {
  std::string text;
  std::string err;
  if (!json::read_file(path, text, err)) {
    ScenarioSpec spec;
    spec.filename = path;
    spec.errors.push_back(Error{0, "", err});
    return spec;
  }
  return load_string(text, path);
}

}  // namespace manet::spec

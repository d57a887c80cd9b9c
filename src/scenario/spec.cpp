#include "scenario/spec.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <span>
#include <sstream>
#include <utility>

#include "common/json.hpp"
#include "scenario/builder.hpp"
#include "scenario/validate.hpp"

namespace manet::spec {

namespace {

using json::Value;

/// %g rendering, matching the bench label convention and validate()'s
/// messages.
std::string fmt_g(double v) {
  char buf[32];
  std::snprintf(buf, sizeof buf, "%g", v);
  return buf;
}

/// Largest |seconds| a SimTime (int64 nanoseconds) holds, with margin.
constexpr double kMaxSeconds = 9e9;

/// Error sink + the typed-accessor helpers every key shares.
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

  /// An integer key stored as T. The cast would wrap a value T cannot
  /// hold (a negative count, say), so that is rejected here.
  template <typename T>
  bool count(const Value& v, const std::string& key, T& out) {
    long long n = 0;
    if (!integer(v, key, n)) return false;
    using Limits = std::numeric_limits<T>;
    const std::string got = ", got " + fmt_g(static_cast<double>(n));
    if (n < static_cast<long long>(Limits::min())) {
      fail(v, key, "must be >= " + std::to_string(Limits::min()) + got);
      return false;
    }
    if (n > 0 && static_cast<unsigned long long>(n) >
                     static_cast<unsigned long long>(Limits::max())) {
      fail(v, key, "must be <= " + std::to_string(Limits::max()) + got);
      return false;
    }
    out = static_cast<T>(n);
    return true;
  }

  /// A time key given in units of `unit_s` seconds.
  bool time_value(const Value& v, const std::string& key, double unit_s, SimTime& out) {
    double x = 0.0;
    return num(v, key, x) && to_time(v, key, x, x * unit_s, out);
  }

  /// Store `seconds`, computed from the key's value `got`, as a SimTime;
  /// past the int64-nanosecond range the conversion would overflow.
  bool to_time(const Value& v, const std::string& key, double got, double seconds,
               SimTime& out) {
    if (!(std::abs(seconds) <= kMaxSeconds)) {
      fail(v, key, "is outside the simulator's time range, got " + fmt_g(got));
      return false;
    }
    out = seconds_f(seconds);
    return true;
  }

 private:
  std::vector<Error>& errs_;
};

// -- settings keys -----------------------------------------------------------
// One table per schema object lists its keys, in the order the unknown-key
// message names them, with how each value lands in the config. Typos fail
// loudly instead of silently running the default. Keys check only type, enum
// name and conversion; every range and cross-field rule is validate()'s,
// applied to the finished config (see load_string()).

/// One value being applied: where it sits in the file and where it lands.
struct Field {
  Checker& c;
  const Value& v;
  const std::string& key;  ///< dotted path, for diagnostics
  ScenarioConfig& cfg;

  bool num(double& out) const { return c.num(v, key, out); }
  bool str(std::string& out) const { return c.str(v, key, out); }
  bool boolean(bool& out) const { return c.boolean(v, key, out); }
  template <typename T>
  bool count(T& out) const {
    return c.count(v, key, out);
  }
  bool time_value(double unit_s, SimTime& out) const { return c.time_value(v, key, unit_s, out); }
  void fail(std::string msg) const { c.fail(v, key, std::move(msg)); }
};

struct Key {
  const char* name;
  void (*apply)(const Field& f);
};

/// Apply every key of the object `f.v` through `keys`.
void walk(const Field& f, std::span<const Key> keys) {
  if (!f.c.expect_kind(f.v, Value::Kind::kObject, f.key)) return;
  for (const auto& [k, v] : f.v.object) {
    const std::string p = f.key + "." + k;
    const auto key =
        std::find_if(keys.begin(), keys.end(), [&k](const Key& e) { return k == e.name; });
    if (key != keys.end()) {
      key->apply(Field{f.c, v, p, f.cfg});
      continue;
    }
    std::string names;
    for (const Key& e : keys) names += (names.empty() ? "" : ", ") + std::string(e.name);
    f.c.fail(v, p, "unknown key (expected: " + names + ")");
  }
}

/// A string naming one of `names`, listed in the enum's order.
template <typename E, std::size_t N>
void choose(const Field& f, const char* what, const char* const (&names)[N], E& out) {
  std::string s;
  if (!f.str(s)) return;
  std::string list;
  for (std::size_t i = 0; i < N; ++i) {
    if (s == names[i]) {
      out = static_cast<E>(i);
      return;
    }
    list += (i == 0 ? "" : ", ") + std::string(names[i]);
  }
  f.fail("unknown " + std::string(what) + " \"" + s + "\" (expected: " + list + ")");
}

constexpr const char* kMobilityModels[] = {"waypoint", "walk", "gauss-markov", "manhattan"};
constexpr const char* kTrafficKinds[] = {"cbr", "onoff"};

constexpr Key kMobilityKeys[] = {
    {"model", [](const Field& f) { choose(f, "mobility model", kMobilityModels, f.cfg.mobility); }},
    {"v_min_mps", [](const Field& f) { f.num(f.cfg.v_min); }},
    {"v_max_mps", [](const Field& f) { f.num(f.cfg.v_max); }},
    {"pause_s", [](const Field& f) { f.time_value(1.0, f.cfg.pause); }},
    {"warmup_s", [](const Field& f) { f.time_value(1.0, f.cfg.mobility_warmup); }},
    {"block_m", [](const Field& f) { f.num(f.cfg.manhattan.block); }},
    {"p_turn", [](const Field& f) { f.num(f.cfg.manhattan.p_turn); }},
};

/// traffic.rate_pps is a divisor: the interval is its reciprocal.
void apply_rate(const Field& f) {
  double x = 0.0;
  if (!f.num(x)) return;
  if (x <= 0.0) {
    f.fail("must be > 0, got " + fmt_g(x));
  } else {
    f.c.to_time(f.v, f.key, x, 1.0 / x, f.cfg.cbr_interval);
  }
}

constexpr Key kTrafficKeys[] = {
    {"kind", [](const Field& f) { choose(f, "traffic kind", kTrafficKinds, f.cfg.traffic); }},
    {"connections", [](const Field& f) { f.count(f.cfg.num_connections); }},
    {"payload_bytes", [](const Field& f) { f.count(f.cfg.payload_bytes); }},
    {"rate_pps", apply_rate},
    {"interval_ms", [](const Field& f) { f.time_value(1e-3, f.cfg.cbr_interval); }},
    {"start_s", [](const Field& f) { f.time_value(1.0, f.cfg.cbr_start); }},
    {"start_window_s", [](const Field& f) { f.time_value(1.0, f.cfg.cbr_start_window); }},
    {"burst_mean_s", [](const Field& f) { f.time_value(1.0, f.cfg.onoff_burst_mean); }},
    {"idle_mean_s", [](const Field& f) { f.time_value(1.0, f.cfg.onoff_idle_mean); }},
};

void apply_traffic(const Field& f) {
  const Value* interval = f.v.find("interval_ms");
  if (interval != nullptr && f.v.find("rate_pps") != nullptr) {
    f.c.fail(*interval, f.key + ".interval_ms", "mutually exclusive with rate_pps");
  }
  walk(f, kTrafficKeys);
}

constexpr Key kRadioKeys[] = {
    {"data_rate_bps", [](const Field& f) { f.num(f.cfg.phy.data_rate_bps); }},
    {"rx_range_m", [](const Field& f) { f.num(f.cfg.phy.rx_range_m); }},
    {"cs_range_m", [](const Field& f) { f.num(f.cfg.phy.cs_range_m); }},
    {"frame_loss_rate", [](const Field& f) { f.num(f.cfg.phy.frame_loss_rate); }},
};

constexpr Key kMacKeys[] = {
    {"use_rts", [](const Field& f) { f.boolean(f.cfg.mac.use_rts); }},
    {"rts_threshold_bytes", [](const Field& f) { f.count(f.cfg.mac.rts_threshold); }},
    {"ifq_capacity", [](const Field& f) { f.count(f.cfg.mac.ifq_capacity); }},
};

constexpr Key kUrbanKeys[] = {
    {"street_width_m", [](const Field& f) { f.num(f.cfg.phy.street_width_m); }},
    {"nlos_range_m", [](const Field& f) { f.num(f.cfg.phy.nlos_rx_range_m); }},
    {"nlos_loss", [](const Field& f) { f.num(f.cfg.phy.nlos_loss_rate); }},
};

constexpr Key kFaultKeys[] = {
    {"crash_rate", [](const Field& f) { f.num(f.cfg.fault.crash_rate); }},
    {"downtime_mean_s", [](const Field& f) { f.time_value(1.0, f.cfg.fault.downtime_mean); }},
    {"link_blackouts", [](const Field& f) { f.count(f.cfg.fault.link_blackouts); }},
    {"blackout_mean_s", [](const Field& f) { f.time_value(1.0, f.cfg.fault.blackout_mean); }},
    {"corrupt_rate", [](const Field& f) { f.num(f.cfg.fault.corrupt_rate); }},
    {"corrupt_from_s", [](const Field& f) { f.time_value(1.0, f.cfg.fault.corrupt_from); }},
    {"corrupt_until_s", [](const Field& f) { f.time_value(1.0, f.cfg.fault.corrupt_until); }},
    {"partition", [](const Field& f) { f.boolean(f.cfg.fault.partition); }},
    {"partition_frac", [](const Field& f) { f.num(f.cfg.fault.partition_frac); }},
    {"partition_from_s", [](const Field& f) { f.time_value(1.0, f.cfg.fault.partition_from); }},
    {"partition_until_s",
     [](const Field& f) { f.time_value(1.0, f.cfg.fault.partition_until); }},
    {"window_from_s", [](const Field& f) { f.time_value(1.0, f.cfg.fault.window_from); }},
};

constexpr Key kTransportKeys[] = {
    {"enabled", [](const Field& f) { f.boolean(f.cfg.transport.enabled); }},
    {"rto_initial_ms", [](const Field& f) { f.time_value(1e-3, f.cfg.transport.rto_initial); }},
    {"rto_min_ms", [](const Field& f) { f.time_value(1e-3, f.cfg.transport.rto_min); }},
    {"rto_max_ms", [](const Field& f) { f.time_value(1e-3, f.cfg.transport.rto_max); }},
    {"cwnd_init", [](const Field& f) { f.count(f.cfg.transport.cwnd_init); }},
    {"cwnd_max", [](const Field& f) { f.count(f.cfg.transport.cwnd_max); }},
    {"max_retx", [](const Field& f) { f.count(f.cfg.transport.max_retx); }},
    {"buffer_packets", [](const Field& f) { f.count(f.cfg.transport.buffer_packets); }},
};

void apply_protocol(const Field& f) {
  std::string s;
  if (!f.str(s)) return;
  const routing::ProtocolEntry* e = protocol_registry().by_name(s);
  if (e == nullptr) {
    f.fail("unknown protocol \"" + s + "\" (registered: " + protocol_registry().names() + ")");
  } else {
    f.cfg.protocol = static_cast<Protocol>(e->id);
  }
}

void apply_area(const Field& f) {
  if (!f.c.expect_kind(f.v, Value::Kind::kArray, f.key)) return;
  if (f.v.array.size() != 2) {
    f.fail("expected [width_m, height_m], got " + std::to_string(f.v.array.size()) +
           " element(s)");
    return;
  }
  double w = 0.0;
  double h = 0.0;
  if (f.c.num(f.v.array[0], f.key + "[0]", w) && f.c.num(f.v.array[1], f.key + "[1]", h)) {
    f.cfg.area = Area{w, h};
  }
}

/// The shared settings object: `base` and each explicit cell's `set`.
constexpr Key kSettingsKeys[] = {
    {"protocol", apply_protocol},
    {"seed", [](const Field& f) { f.count(f.cfg.seed); }},
    {"nodes", [](const Field& f) { f.count(f.cfg.num_nodes); }},
    {"area_m", apply_area},
    {"static", [](const Field& f) { f.boolean(f.cfg.static_nodes); }},
    {"duration_s", [](const Field& f) { f.time_value(1.0, f.cfg.duration); }},
    {"measure_connectivity", [](const Field& f) { f.boolean(f.cfg.measure_connectivity); }},
    {"trace", [](const Field& f) { f.str(f.cfg.trace_path); }},
    {"mobility", [](const Field& f) { walk(f, kMobilityKeys); }},
    {"traffic", apply_traffic},
    {"radio", [](const Field& f) { walk(f, kRadioKeys); }},
    {"mac", [](const Field& f) { walk(f, kMacKeys); }},
    {"urban", [](const Field& f) { walk(f, kUrbanKeys); }},
    {"fault", [](const Field& f) { walk(f, kFaultKeys); }},
    {"transport", [](const Field& f) { walk(f, kTransportKeys); }},
};

void apply_settings(Checker& c, const Value& o, const std::string& path, ScenarioConfig& cfg) {
  walk(Field{c, o, path, cfg}, kSettingsKeys);
}

// -- sweep axes --------------------------------------------------------------

struct Axis {
  std::string param;           ///< label segment ("pause" -> "AODV/pause:0")
  bool urban_family = false;   ///< values are urban_scenario() node counts
  std::vector<double> values;  ///< conversion-checked at parse time
};

constexpr const char* kAxisParams = "pause, vmax, nodes, sources, crash, loss, rate";

/// Conversion checks for one axis value (its ranges are validate()'s): node
/// and source counts become uint32, a pause a SimTime, and a rate is the
/// divisor of one.
bool convertible(Checker& c, const Axis& a, const Value& v, const std::string& key) {
  const double x = v.number;
  std::uint32_t n = 0;
  SimTime t;
  if (a.urban_family || a.param == "nodes" || a.param == "sources") return c.count(v, key, n);
  if (a.param == "pause") return c.to_time(v, key, x, x, t);
  if (a.param != "rate") return true;
  if (x <= 0.0) {
    c.fail(v, key, "must be > 0, got " + fmt_g(x));
    return false;
  }
  return c.to_time(v, key, x, 1.0 / x, t);
}

/// Copy the urban Manhattan family's derived fields onto `cfg`, reusing
/// urban_scenario() so the city-size math has exactly one home. The staged
/// config is taken through with(), not build(), so a bad node count comes
/// back from validate() as a located error instead of a contract abort.
void apply_urban_family(ScenarioConfig& cfg, std::uint32_t n) {
  ScenarioConfig u;
  urban_scenario(n).with([&u](ScenarioConfig& staged) { u = staged; });
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

// -- the contract ------------------------------------------------------------
// validate() states every rule once; the loader only decides where each
// violation is reported, and reports each distinct one once.

/// Source line of validate() path `path` ("traffic.start_s", "area_m[0]")
/// inside settings object `o`: the deepest key present, else `o`'s own line,
/// else (no object) `fallback`.
int line_of(const Value* o, const std::string& path, int fallback) {
  int line = o != nullptr ? o->line : fallback;
  std::size_t pos = 0;
  while (o != nullptr && o->is_object() && pos < path.size()) {
    const std::size_t end = std::min(path.find('.', pos), path.find('[', pos));
    o = o->find(std::string_view(path).substr(pos, end - pos));
    if (o != nullptr) line = o->line;
    pos = end == std::string::npos ? path.size() : end + 1;
  }
  return line;
}

/// The violations of `cfg` not in `seen`, which then records them.
std::vector<Violation> fresh_violations(const ScenarioConfig& cfg, std::vector<Violation>& seen) {
  std::vector<Violation> fresh;
  for (Violation& v : validate(cfg)) {
    const bool dup = std::any_of(seen.begin(), seen.end(), [&](const Violation& s) {
      return s.path == v.path && s.message == v.message;
    });
    if (dup) continue;
    seen.push_back(v);
    fresh.push_back(std::move(v));
  }
  return fresh;
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
      // A spec-level knob, not part of the scenario contract.
      long long n = 0;
      if (!c.integer(v, "seeds", n)) continue;
      if (n < 1 || n > 100000) {
        c.fail(v, "seeds", "must be in [1, 100000], got " + fmt_g(static_cast<double>(n)));
      } else {
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

  // The base is validated first, each violation anchored at its own key.
  const Value* base_value = root.find("base");
  std::vector<Violation> seen;
  for (const Violation& v : fresh_violations(base, seen)) {
    c.fail_at(line_of(base_value, v.path, root.line), "base." + v.path, v.message);
  }
  if (!base.trace_path.empty()) {
    spec.trace_lines.emplace(base.trace_path, line_of(base_value, "trace", root.line));
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
                   "unknown protocol \"" + s + "\" (registered: " + protocol_registry().names() +
                       ")");
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
            if (!c.expect_kind(vv, Value::Kind::kNumber, pv) || !convertible(c, axis, vv, pv)) {
              continue;
            }
            // Each value once, at its own line: what it breaks on the base.
            ScenarioConfig probe = base;
            apply_axis(axis, vv.number, probe);
            for (const Violation& bad : fresh_violations(probe, seen)) {
              c.fail(vv, pv, bad.path + ": " + bad.message);
            }
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
        for (const Violation& bad : fresh_violations(pcfg, seen)) {
          c.fail_at(sweep_line, "cell \"" + label + "\"", bad.path + ": " + bad.message);
        }
        spec.cells.push_back(SweepCell{std::move(label), std::move(pcfg)});
      }
    }
  }

  for (const ExplicitCell& cell : explicit_cells) {
    ScenarioConfig cfg = base;
    if (cell.set != nullptr) {
      apply_settings(c, *cell.set, "sweep.cells \"" + cell.label + "\".set", cfg);
    }
    for (const Violation& bad : fresh_violations(cfg, seen)) {
      c.fail_at(line_of(cell.set, bad.path, cell.line), "cell \"" + cell.label + "\"",
                bad.path + ": " + bad.message);
    }
    if (!cfg.trace_path.empty()) {
      spec.trace_lines.emplace(cfg.trace_path, line_of(cell.set, "trace", cell.line));
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

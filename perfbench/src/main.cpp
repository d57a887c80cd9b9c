// perfbench_run — runs one benchmark workload and prints raw records.
//
//   perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>
//
// A workload is a list of replications, each a ScenarioConfig expanded
// through ScenarioBuilder from (workload, seed, pass). A pass runs the list
// closed-loop on a small worker pool: each worker pulls the next replication
// when its previous one finishes. Passes repeat, each with its own scenario
// seeds, until --seconds have elapsed (at least one). With --trace 1 every
// pass is followed by a traced twin with timing decorators on the upcall
// seams (see taps.hpp). With --trace 0 an untimed traced run of pass 0 and
// the set-up timing rounds come before the timed passes.
//
// Output is JSON lines on stdout, one object per line:
//   {"type":"setup", "round_s":[...]}  expansion + build() of every item, per round
//   {"type":"rep", "pass":k, "traced":b, "label":..., "digest":..., ...}
//   {"type":"pass", "pass":k, "traced":b, "wall_s":..., "workers":w}
//   {"type":"end", "peak_rss_bytes":...}   process peak RSS at the end
// run.py turns these into the benchmark's metrics and checks the digests.
// Progress and errors go to stderr; a usage error exits 2.
#include <algorithm>
#include <atomic>
#include <cerrno>
#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <functional>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "scenario/builder.hpp"
#include "taps.hpp"

namespace perfbench {
namespace {

using manet::Protocol;
using manet::ScenarioBuilder;
using manet::ScenarioConfig;
using manet::ScenarioResult;
using Clock = std::chrono::steady_clock;

double since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// -- workloads ----------------------------------------------------------------

struct Item {
  std::string label;
  std::function<ScenarioConfig()> expand;
};

struct Workload {
  const char* name;
  unsigned workers;
  std::vector<Item> (*items)(std::uint64_t seed);
};

std::string label_of(Protocol p, const char* axis, long value, std::uint64_t seed) {
  char buf[128];
  std::snprintf(buf, sizeof(buf), "%s/%s:%ld/seed:%" PRIu64, manet::to_string(p), axis, value,
                seed);
  return buf;
}

/// The paper's experiment: 40 nodes on 1500 x 300 m, v_max 20 m/s, 10 CBR
/// sources, AODV/DSR/CBRP x pause {0, long} x replications.
constexpr int kPauseReps = 2;
constexpr long kPauseLong = 120;  // s; the run lasts 150 s, so nodes mostly rest

std::vector<Item> pause_sweep(std::uint64_t seed) {
  std::vector<Item> items;
  for (const Protocol p : {Protocol::kAodv, Protocol::kDsr, Protocol::kCbrp}) {
    for (const long pause : {0L, kPauseLong}) {
      for (int k = 0; k < kPauseReps; ++k) {
        const std::uint64_t s = seed + static_cast<std::uint64_t>(k);
        items.push_back({label_of(p, "pause", pause, s), [p, pause, s] {
                           return ScenarioBuilder()
                               .protocol(p)
                               .seed(s)
                               .nodes(40)
                               .area(1500.0, 300.0)
                               .speed(0.1, 20.0)
                               .pause(manet::seconds(pause))
                               .connections(10)
                               .shards(1)
                               .build();
                         }});
      }
    }
  }
  return items;
}

/// One 2000-node Manhattan city running AODV. 30 simulated seconds (traffic
/// starts at 10-20 s, so route-request floods dominate) keep one city near a
/// host second, so a run's median covers many cities.
constexpr long kCityDuration = 30;  // s

std::vector<Item> city_2000(std::uint64_t seed) {
  return {{label_of(Protocol::kAodv, "nodes", 2000, seed), [seed] {
             return manet::urban_scenario(2000)
                 .protocol(Protocol::kAodv)
                 .seed(seed)
                 .duration(manet::seconds(kCityDuration))
                 .shards(1)
                 .build();
           }}};
}

/// Closed-loop transport at 48 sources (bench load_cell), AODV and DSR. The
/// MAC saturates within seconds of the traffic start, so 100 s runs show the
/// same steady state as the bench's 150 s and leave room for more passes.
constexpr int kLoadReps = 2;
constexpr long kLoadDuration = 100;  // s

std::vector<Item> load_48(std::uint64_t seed) {
  std::vector<Item> items;
  for (const Protocol p : {Protocol::kAodv, Protocol::kDsr}) {
    for (int k = 0; k < kLoadReps; ++k) {
      const std::uint64_t s = seed + static_cast<std::uint64_t>(k);
      items.push_back({label_of(p, "sources", 48, s), [p, s] {
                         manet::TransportConfig transport;
                         transport.enabled = true;
                         return ScenarioBuilder()
                             .protocol(p)
                             .seed(s)
                             .nodes(40)
                             .area(1500.0, 300.0)
                             .speed(0.1, 10.0)
                             .connections(48)
                             .transport(transport)
                             .duration(manet::seconds(kLoadDuration))
                             .shards(1)
                             .build();
                       }});
    }
  }
  return items;
}

constexpr Workload kWorkloads[] = {
    {"pause_sweep", 4, pause_sweep},
    {"city_2000", 1, city_2000},
    {"load_48", 4, load_48},
};

/// Pass p of a run under --seed s simulates scenario seeds from
/// s*100000 + p*100 on, so every pass of every run has its own inputs.
std::uint64_t pass_seed(std::uint64_t seed, int pass) {
  return seed * 100000 + static_cast<std::uint64_t>(pass) * 100;
}

// -- one replication ------------------------------------------------------------

/// 64-bit FNV-1a over the canonical text of every simulated statistic.
class Digest {
 public:
  void add(const char* name, double v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%.17g;", name, v);
    mix(buf);
  }
  void add(const char* name, std::uint64_t v) {
    char buf[96];
    std::snprintf(buf, sizeof(buf), "%s=%" PRIu64 ";", name, v);
    mix(buf);
  }
  [[nodiscard]] std::uint64_t value() const { return h_; }

 private:
  void mix(const char* s) {
    for (; *s != '\0'; ++s) {
      h_ ^= static_cast<unsigned char>(*s);
      h_ *= 0x100000001b3ULL;
    }
  }
  std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

struct Record {
  std::string label;
  double build_s = 0.0;  ///< config expansion plus Scenario::build()
  double run_s = 0.0;
  std::uint64_t digest = 0;
  /// Count metrics (names as printed) — simulated counters and span totals.
  std::vector<std::pair<std::string, double>> counters;
};

constexpr const char* kDropNames[] = {
    "ifq_full", "retry_limit",   "no_route", "buffer_timeout", "buffer_overflow", "ttl_expired",
    "arp_fail", "loop",          "protocol", "node_down",      "give_up",
};
static_assert(std::size(kDropNames) == static_cast<std::size_t>(manet::DropReason::kCount_));

std::uint64_t digest_of(const ScenarioResult& r, const manet::StatsCollector& st) {
  Digest d;
  d.add("pdr", r.pdr);
  d.add("delay_ms", r.delay_ms);
  d.add("nrl", r.nrl);
  d.add("nml", r.nml);
  d.add("throughput_kbps", r.throughput_kbps);
  d.add("avg_hops", r.avg_hops);
  d.add("connectivity", r.connectivity);
  d.add("data_originated", r.data_originated);
  d.add("data_delivered", r.data_delivered);
  d.add("retransmissions", r.retransmissions);
  d.add("routing_tx", r.routing_tx);
  d.add("mac_ctrl_tx", r.mac_ctrl_tx);
  d.add("repair_latency_ms", r.repair_latency_ms);
  d.add("crashes", r.crashes);
  d.add("fault_corrupted", r.fault_corrupted);
  d.add("delivered_during_fault", r.delivered_during_fault);
  d.add("delivered_after_fault", r.delivered_after_fault);
  for (std::size_t i = 0; i < std::size(kDropNames); ++i) {
    d.add(kDropNames[i], st.drops(static_cast<manet::DropReason>(i)));
  }
  d.add("arp_tx", st.arp_tx());
  d.add("collisions", st.collisions());
  d.add("data_tx", st.data_tx());
  d.add("routing_bytes", st.routing_bytes());
  d.add("duplicate_deliveries", st.duplicate_deliveries());
  d.add("delivered_bytes", st.delivered_bytes());
  d.add("energy_tx_j", st.energy_tx_j());
  d.add("energy_rx_j", st.energy_rx_j());
  for (const auto& [id, f] : r.flows) {
    d.add("flow", static_cast<std::uint64_t>(id));
    d.add("src", static_cast<std::uint64_t>(f.src));
    d.add("dst", static_cast<std::uint64_t>(f.dst));
    d.add("tx_packets", f.tx_packets);
    d.add("tx_bytes", f.tx_bytes);
    d.add("rx_packets", f.rx_packets);
    d.add("rx_bytes", f.rx_bytes);
    d.add("flow_retx", f.retransmissions);
    d.add("delay_sum_s", f.delay_sum_s);
    d.add("jitter_sum_s", f.jitter_sum_s);
  }
  return d.value();
}

Record run_item(const Item& item, bool traced) {
  Record rec;
  rec.label = item.label;

  Taps taps;  // declared first: outlives the scenario that points at it
  const auto t0 = Clock::now();
  manet::Scenario sc(item.expand());
  sc.build();
  rec.build_s = since(t0);
  if (traced) install_taps(sc, taps);

  const auto t1 = Clock::now();
  const ScenarioResult r = sc.run();
  rec.run_s = since(t1);

  const manet::StatsCollector& st = sc.stats();
  rec.digest = digest_of(r, st);

  auto put = [&rec](std::string name, double v) {
    rec.counters.emplace_back(std::move(name), v);
  };
  put("events", static_cast<double>(r.events));
  put("peak_queue_depth", static_cast<double>(r.peak_queue_depth));
  put("data_originated", static_cast<double>(r.data_originated));
  put("data_delivered", static_cast<double>(r.data_delivered));
  put("delay_sum_ms", r.delay_ms * static_cast<double>(r.data_delivered));
  put("data_tx", static_cast<double>(st.data_tx()));
  put("routing_tx", static_cast<double>(r.routing_tx));
  put("routing_bytes", static_cast<double>(st.routing_bytes()));
  put("mac_ctrl_tx", static_cast<double>(r.mac_ctrl_tx));
  put("arp_tx", static_cast<double>(st.arp_tx()));
  put("collisions", static_cast<double>(st.collisions()));
  put("retransmissions", static_cast<double>(r.retransmissions));
  put("flows", static_cast<double>(r.flows.size()));
  for (std::size_t i = 0; i < std::size(kDropNames); ++i) {
    put(std::string("drops.") + kDropNames[i],
        static_cast<double>(st.drops(static_cast<manet::DropReason>(i))));
  }
  if (traced) {
    std::uint64_t busy = 0, rx = 0, deliveries = 0, failures = 0;
    for (const auto& t : taps.phy) {
      busy += t->busy_edges;
      rx += t->rx_frames;
    }
    for (const auto& t : taps.mac) {
      deliveries += t->deliveries;
      failures += t->link_failures;
    }
    put("phy_busy_edges", static_cast<double>(busy));
    put("phy_rx_frames", static_cast<double>(rx));
    put("mac_deliveries", static_cast<double>(deliveries));
    put("mac_link_failures", static_cast<double>(failures));
    for (std::size_t l = 0; l < std::size(kLayerNames); ++l) {
      const LayerTime& lt = taps.spans.layer(static_cast<Layer>(l));
      put(std::string(kLayerNames[l]) + "_upcalls", static_cast<double>(lt.calls));
      put(std::string(kLayerNames[l]) + "_self_s", static_cast<double>(lt.self_ns) * 1e-9);
    }
  }
  return rec;
}

// -- passes -------------------------------------------------------------------

void print_json_string(std::string_view s) {
  std::putchar('"');
  for (const char c : s) {
    if (c == '"' || c == '\\') std::putchar('\\');
    std::putchar(c);
  }
  std::putchar('"');
}

/// Run every item once, closed-loop on `workers` threads, and print records.
void run_pass(const std::vector<Item>& items, unsigned workers, int pass, bool traced) {
  std::vector<Record> records(items.size());
  std::atomic<std::size_t> cursor{0};
  auto worker = [&] {
    for (;;) {
      const std::size_t k = cursor.fetch_add(1);
      if (k >= items.size()) return;
      records[k] = run_item(items[k], traced);
    }
  };
  const unsigned n = std::max(1u, std::min<unsigned>(workers, items.size()));
  const auto t0 = Clock::now();
  {
    std::vector<std::jthread> pool;
    for (unsigned t = 1; t < n; ++t) pool.emplace_back(worker);
    worker();
  }
  const double wall = since(t0);

  for (const Record& r : records) {
    std::printf("{\"type\":\"rep\",\"pass\":%d,\"traced\":%s,\"label\":", pass,
                traced ? "true" : "false");
    print_json_string(r.label);
    std::printf(",\"digest\":\"%016" PRIx64
                "\",\"build_s\":%.9g,\"run_s\":%.9g,\"counters\":{",
                r.digest, r.build_s, r.run_s);
    for (std::size_t i = 0; i < r.counters.size(); ++i) {
      std::printf("%s\"%s\":%.17g", i == 0 ? "" : ",", r.counters[i].first.c_str(),
                  r.counters[i].second);
    }
    std::printf("}}\n");
  }
  std::printf("{\"type\":\"pass\",\"pass\":%d,\"traced\":%s,\"wall_s\":%.9g,\"workers\":%u}\n",
              pass, traced ? "true" : "false", wall, n);
  std::fflush(stdout);
  std::fprintf(stderr, "perfbench_run: pass %d%s: %zu replications in %.3f s\n", pass,
               traced ? " (traced)" : "", items.size(), wall);
}

/// Time config expansion plus Scenario::build() for every item, single-
/// threaded, kSetupRounds times; print each round's sum.
constexpr int kSetupRounds = 51;

void run_setup(const std::vector<Item>& items) {
  std::printf("{\"type\":\"setup\",\"round_s\":[");
  for (int round = 0; round < kSetupRounds; ++round) {
    double sum = 0.0;
    for (const Item& item : items) {
      const auto t0 = Clock::now();
      manet::Scenario sc(item.expand());
      sc.build();
      sum += since(t0);
    }
    std::printf("%s%.9g", round == 0 ? "" : ",", sum);
  }
  std::printf("]}\n");
  std::fflush(stdout);
}

/// Peak resident set size of this process in bytes, from VmHWM in
/// /proc/self/status (0 where unavailable). getrusage() is not used: on
/// Linux its ru_maxrss survives execve, so it would report the launching
/// script's footprint whenever that is larger.
std::uint64_t peak_rss_bytes() {
  std::FILE* f = std::fopen("/proc/self/status", "r");
  if (f == nullptr) return 0;
  char line[256];
  unsigned long long kib = 0;
  while (std::fgets(line, sizeof(line), f) != nullptr) {
    if (std::sscanf(line, "VmHWM: %llu kB", &kib) == 1) break;
  }
  std::fclose(f);
  return kib * 1024;
}

[[noreturn]] void usage(const char* msg, const char* arg) {
  std::fprintf(stderr, "perfbench_run: %s%s%s\n", msg, arg != nullptr ? ": " : "",
               arg != nullptr ? arg : "");
  std::fprintf(stderr,
               "usage: perfbench_run --workload <name> --seed <n> --seconds <s> --trace <0|1>\n"
               "workloads:");
  for (const Workload& w : kWorkloads) std::fprintf(stderr, " %s", w.name);
  std::fprintf(stderr, "\n");
  std::exit(2);
}

std::uint64_t parse_uint(const char* flag, const char* v) {
  char* end = nullptr;
  errno = 0;
  const unsigned long long x = std::strtoull(v, &end, 10);
  if (*v == '\0' || *v == '-' || *end != '\0' || errno != 0) {
    usage("not a non-negative integer", flag);
  }
  return x;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) {
  using namespace perfbench;
  const Workload* workload = nullptr;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string_view a = argv[i];
    if (i + 1 >= argc) usage("missing value after", argv[i]);
    const char* v = argv[++i];
    if (a == "--workload") {
      for (const Workload& w : kWorkloads) {
        if (std::strcmp(w.name, v) == 0) workload = &w;
      }
      if (workload == nullptr) usage("--workload: unknown workload", v);
    } else if (a == "--seed") {
      seed = parse_uint("--seed", v);
    } else if (a == "--seconds") {
      seconds = static_cast<double>(parse_uint("--seconds", v));
    } else if (a == "--trace") {
      const std::uint64_t t = parse_uint("--trace", v);
      if (t > 1) usage("--trace: want 0 or 1, got", v);
      trace = t == 1;
    } else {
      usage("unknown argument", argv[i - 1]);
    }
  }
  if (workload == nullptr) usage("--workload is required", nullptr);

  // With --trace 0, an untimed traced run of pass 0 goes first. run.py checks
  // its digests against the timed pass 0, and it warms the process up: the
  // first pass pays for heap growth that later passes reuse. Set-up is timed
  // right after it, so it sees the same heap history however many timed
  // passes fit in --seconds.
  if (!trace) {
    const std::vector<Item> first = workload->items(pass_seed(seed, 0));
    run_pass(first, workload->workers, 0, true);
    run_setup(first);
  }
  const auto t0 = Clock::now();
  int pass = 0;
  do {
    const std::vector<Item> items = workload->items(pass_seed(seed, pass));
    run_pass(items, workload->workers, pass, false);
    if (trace) run_pass(items, workload->workers, pass, true);
    ++pass;
  } while (since(t0) < seconds);
  std::printf("{\"type\":\"end\",\"peak_rss_bytes\":%" PRIu64 "}\n", peak_rss_bytes());
  return 0;
}

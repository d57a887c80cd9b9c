#include "scenario/sweep.hpp"

#include <atomic>
#include <chrono>  // manet-lint: allow-wall-clock - replication profiling only
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <sys/resource.h>
#endif

#include "common/json.hpp"
#include "core/assert.hpp"

namespace manet {

namespace {

// Wall-clock readings feed only the RunProfile/SweepResult performance
// artifacts (wall_s, events_per_sec); no simulated behaviour depends on them.
// manet-lint: allow-wall-clock - profiling artifact data, never sim input
using Clock = std::chrono::steady_clock;

[[nodiscard]] double elapsed_s(Clock::time_point t0) {
  // manet-lint: allow-wall-clock - profiling artifact data, never sim input
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

/// CSV fields are labels like "AODV/pause:30" — quote only when needed.
void csv_field(std::ostream& os, std::string_view s) {
  if (s.find_first_of(",\"\n") == std::string_view::npos) {
    os << s;
    return;
  }
  os << '"';
  for (const char c : s) {
    if (c == '"') os << '"';
    os << c;
  }
  os << '"';
}

bool write_text_file(const std::string& path, const std::string& text) {
  const std::filesystem::path p(path);
  std::error_code ec;
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path(), ec);
  std::ofstream out(p, std::ios::trunc);
  if (!out) {
    std::fprintf(stderr, "manetsim: cannot write %s\n", path.c_str());
    return false;
  }
  out << text;
  return static_cast<bool>(out);
}

}  // namespace

std::uint64_t process_peak_rss_bytes() {
#if defined(__unix__) || defined(__APPLE__)
  struct rusage ru{};
  if (getrusage(RUSAGE_SELF, &ru) != 0) return 0;
#if defined(__APPLE__)
  return static_cast<std::uint64_t>(ru.ru_maxrss);  // bytes on macOS
#else
  return static_cast<std::uint64_t>(ru.ru_maxrss) * 1024;  // KiB on Linux
#endif
#else
  return 0;
#endif
}

const SweepCellResult* SweepResult::find(std::string_view label) const {
  for (const SweepCellResult& c : cells) {
    if (c.label == label) return &c;
  }
  return nullptr;
}

std::string SweepResult::to_json() const {
  std::ostringstream os;
  os.precision(10);
  os << "{\n  \"name\": \"";
  json::escape(os, name);
  os << "\",\n  \"schema\": 1,\n"
     << "  \"seeds_per_cell\": " << seeds_per_cell << ",\n"
     << "  \"threads\": " << threads << ",\n"
     << "  \"wall_s\": " << wall_s << ",\n"
     << "  \"total_events\": " << total_events << ",\n"
     << "  \"events_per_sec\": " << events_per_sec << ",\n"
     << "  \"peak_queue_depth\": " << peak_queue_depth << ",\n"
     << "  \"peak_rss_bytes\": " << peak_rss_bytes << ",\n"
     << "  \"cells\": [";
  for (std::size_t i = 0; i < cells.size(); ++i) {
    const SweepCellResult& c = cells[i];
    os << (i == 0 ? "\n" : ",\n") << "    {\"label\": \"";
    json::escape(os, c.label);
    os << "\", \"replications\": " << c.aggregate.replications
       << ", \"total_events\": " << c.aggregate.total_events << ",\n     \"metrics\": {";
    bool first = true;
    c.aggregate.for_each([&](const char* mname, const Metric& m) {
      os << (first ? "" : ", ") << '"' << mname << "\": {\"mean\": " << m.mean
         << ", \"se\": " << m.se << '}';
      first = false;
    });
    os << "},\n     \"profile\": {\"wall_s\": " << c.wall_s
       << ", \"events_per_sec\": " << c.events_per_sec
       << ", \"peak_queue_depth\": " << c.peak_queue_depth
       << ", \"peak_rss_bytes\": " << c.peak_rss_bytes
       << ", \"bytes_per_node\": " << c.bytes_per_node << ", \"runs\": [";
    for (std::size_t k = 0; k < c.runs.size(); ++k) {
      const RunProfile& r = c.runs[k];
      os << (k == 0 ? "" : ", ") << "{\"seed\": " << r.seed << ", \"wall_s\": " << r.wall_s
         << ", \"sim_rate\": " << r.sim_rate << ", \"events_per_sec\": " << r.events_per_sec
         << ", \"events\": " << r.events << ", \"peak_queue_depth\": " << r.peak_queue_depth
         << ", \"peak_rss_bytes\": " << r.peak_rss_bytes;
      // FlowMonitor table, present only for transport-enabled runs so
      // transport-free artifacts stay byte-identical to pre-transport ones.
      if (!r.flows.empty()) {
        os << ", \"retransmissions\": " << r.retransmissions << ", \"flows\": [";
        for (std::size_t f = 0; f < r.flows.size(); ++f) {
          const FlowRecord& fr = r.flows[f].second;
          os << (f == 0 ? "" : ", ") << "{\"flow\": " << r.flows[f].first
             << ", \"src\": " << fr.src << ", \"dst\": " << fr.dst
             << ", \"tx_packets\": " << fr.tx_packets << ", \"tx_bytes\": " << fr.tx_bytes
             << ", \"rx_packets\": " << fr.rx_packets << ", \"rx_bytes\": " << fr.rx_bytes
             << ", \"retransmissions\": " << fr.retransmissions
             << ", \"avg_delay_ms\": " << fr.avg_delay_ms()
             << ", \"mean_jitter_ms\": " << fr.mean_jitter_ms() << '}';
        }
        os << ']';
      }
      os << '}';
    }
    os << "]}}";
  }
  os << "\n  ]\n}\n";
  return os.str();
}

std::string SweepResult::to_csv() const {
  std::ostringstream os;
  os.precision(10);
  os << "label";
  for (const MetricDef& d : kMetricDefs) os << ',' << d.name << "_mean," << d.name << "_se";
  os << ",replications,total_events,wall_s,events_per_sec,peak_queue_depth"
     << ",peak_rss_bytes,bytes_per_node\n";
  for (const SweepCellResult& c : cells) {
    csv_field(os, c.label);
    c.aggregate.for_each(
        [&](const char*, const Metric& m) { os << ',' << m.mean << ',' << m.se; });
    os << ',' << c.aggregate.replications << ',' << c.aggregate.total_events << ',' << c.wall_s
       << ',' << c.events_per_sec << ',' << c.peak_queue_depth << ',' << c.peak_rss_bytes << ','
       << c.bytes_per_node << '\n';
  }
  return os.str();
}

std::string SweepResult::to_baseline_json() const {
  std::ostringstream os;
  os.precision(10);
  os << "{\n  \"schema\": 1,\n  \"entries\": [\n";
  os << "    {\"name\": \"";
  json::escape(os, name);
  os << "\", \"events_per_sec\": " << events_per_sec << ", \"wall_s\": " << wall_s << '}';
  for (const SweepCellResult& c : cells) {
    os << ",\n    {\"name\": \"";
    json::escape(os, name);
    os << '/';
    json::escape(os, c.label);
    os << "\", \"events_per_sec\": " << c.events_per_sec << ", \"wall_s\": " << c.wall_s;
    // bench_gate gates memory only when baseline AND fresh both carry the
    // field, so pre-existing baselines without it keep passing unchanged.
    if (c.bytes_per_node > 0.0) os << ", \"bytes_per_node\": " << c.bytes_per_node;
    os << '}';
  }
  os << "\n  ]\n}\n";
  return os.str();
}

bool SweepResult::write_json(const std::string& path) const {
  return write_text_file(path, to_json());
}

bool SweepResult::write_csv(const std::string& path) const {
  return write_text_file(path, to_csv());
}

SweepRunner::SweepRunner(int seeds, unsigned threads) : seeds_(seeds), threads_(threads) {
  MANET_EXPECTS(seeds >= 1);
  if (threads_ == 0) threads_ = std::max(1u, std::thread::hardware_concurrency());
}

SweepRunner SweepRunner::from_env(int default_seeds) {
  const BenchEnv env = BenchEnv::parse(default_seeds);
  return SweepRunner(env.seeds, env.threads);
}

SweepResult SweepRunner::run(const std::vector<SweepCell>& cells) const {
  const std::size_t seeds = static_cast<std::size_t>(seeds_);
  const std::size_t total = cells.size() * seeds;

  // The whole grid is one flat work list (cell-major); workers pull items
  // from a shared cursor, so a slow cell's remaining seeds and the next
  // cells' replications run concurrently — no per-cell barrier.
  std::vector<ScenarioResult> results(total);
  std::vector<RunProfile> profiles(total);
  std::atomic<std::size_t> cursor{0};

  auto worker = [&] {
    for (;;) {
      const std::size_t k = cursor.fetch_add(1);
      if (k >= total) return;
      const std::size_t cell = k / seeds;
      const std::size_t rep = k % seeds;
      ScenarioConfig cfg = cells[cell].config;
      cfg.seed += static_cast<std::uint64_t>(rep);

      const auto t0 = Clock::now();
      const ScenarioResult r = Scenario::run_once(cfg);
      const double wall = elapsed_s(t0);

      RunProfile p;
      p.seed = cfg.seed;
      p.wall_s = wall;
      p.events = r.events;
      p.peak_queue_depth = r.peak_queue_depth;
      p.peak_rss_bytes = process_peak_rss_bytes();
      p.retransmissions = r.retransmissions;
      p.flows = r.flows;
      if (wall > 0.0) {
        p.sim_rate = cfg.duration.sec() / wall;
        p.events_per_sec = static_cast<double>(r.events) / wall;
      }
      results[k] = r;
      profiles[k] = p;
    }
  };

  const auto t0 = Clock::now();
  const unsigned nthreads =
      std::min<unsigned>(threads_, static_cast<unsigned>(std::max<std::size_t>(total, 1)));
  if (nthreads <= 1) {
    worker();
  } else {
    std::vector<std::thread> pool;
    pool.reserve(nthreads);
    for (unsigned t = 0; t < nthreads; ++t) pool.emplace_back(worker);
    for (auto& t : pool) t.join();
  }

  SweepResult sweep;
  sweep.seeds_per_cell = seeds_;
  sweep.threads = nthreads;
  sweep.wall_s = elapsed_s(t0);
  sweep.cells.reserve(cells.size());
  for (std::size_t c = 0; c < cells.size(); ++c) {
    SweepCellResult cell;
    cell.label = cells[c].label;
    const auto begin = results.begin() + static_cast<std::ptrdiff_t>(c * seeds);
    cell.aggregate = aggregate_results({begin, begin + static_cast<std::ptrdiff_t>(seeds)});
    cell.runs.assign(profiles.begin() + static_cast<std::ptrdiff_t>(c * seeds),
                     profiles.begin() + static_cast<std::ptrdiff_t>((c + 1) * seeds));
    for (const RunProfile& p : cell.runs) {
      cell.wall_s += p.wall_s;
      cell.peak_queue_depth = std::max(cell.peak_queue_depth, p.peak_queue_depth);
      cell.peak_rss_bytes = std::max(cell.peak_rss_bytes, p.peak_rss_bytes);
    }
    if (cell.wall_s > 0.0) {
      cell.events_per_sec =
          static_cast<double>(cell.aggregate.total_events) / cell.wall_s;
    }
    if (cells[c].config.num_nodes > 0) {
      cell.bytes_per_node = static_cast<double>(cell.peak_rss_bytes) /
                            static_cast<double>(cells[c].config.num_nodes);
    }
    sweep.total_events += cell.aggregate.total_events;
    sweep.peak_queue_depth = std::max(sweep.peak_queue_depth, cell.peak_queue_depth);
    sweep.peak_rss_bytes = std::max(sweep.peak_rss_bytes, cell.peak_rss_bytes);
    sweep.cells.push_back(std::move(cell));
  }
  if (sweep.wall_s > 0.0) {
    sweep.events_per_sec = static_cast<double>(sweep.total_events) / sweep.wall_s;
  }
  return sweep;
}

}  // namespace manet

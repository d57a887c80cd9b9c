// simulate — the command-line front end to manetsim.
//
// Everything the ScenarioConfig exposes, driveable from a shell. Runs the
// requested number of replications (in parallel) and prints mean ± standard
// error for every metric.
//
//   ./build/examples/simulate --protocol olsr --nodes 70 --vmax 15 [...]
//       --duration 150 --connections 10 --seeds 5
//   ./build/examples/simulate --help

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "scenario/builder.hpp"
#include "scenario/experiment.hpp"
#include "scenario/scenario.hpp"

namespace {

using namespace manet;

[[noreturn]] void usage(int code) {
  std::printf(
      "usage: simulate [options]\n"
      "  --protocol P     aodv|dsr|cbrp|dsdv|olsr|lar|tora   (default aodv)\n"
      "  --nodes N        node count                          (default 50)\n"
      "  --area WxH       area in metres                      (default 1000x1000)\n"
      "  --vmax V         max speed m/s                       (default 20)\n"
      "  --pause S        waypoint pause seconds              (default 0)\n"
      "  --static         immobile nodes\n"
      "  --mobility M     waypoint|walk|gauss-markov|manhattan\n"
      "  --traffic T      cbr|onoff                           (default cbr)\n"
      "  --connections C  CBR flows                           (default 10)\n"
      "  --rate R         packets per second per flow         (default 4)\n"
      "  --duration S     simulated seconds                   (default 150)\n"
      "  --loss P         per-frame loss probability          (default 0)\n"
      "  --no-rts         disable RTS/CTS\n"
      "  --trace FILE     write an ns-2-style event trace\n"
      "  --seed S         root seed                           (default 1)\n"
      "  --seeds K        replications (seed, seed+1, ...)    (default 1)\n"
      "  --quiet          print only the metric rows\n");
  std::exit(code);
}

MobilityKind parse_mobility(const std::string& s) {
  if (s == "waypoint") return MobilityKind::kRandomWaypoint;
  if (s == "walk") return MobilityKind::kRandomWalk;
  if (s == "gauss-markov") return MobilityKind::kGaussMarkov;
  if (s == "manhattan") return MobilityKind::kManhattan;
  std::fprintf(stderr, "unknown mobility model '%s'\n", s.c_str());
  usage(2);
}

}  // namespace

int main(int argc, char** argv) {
  ScenarioBuilder builder;
  int seeds = 1;
  bool quiet = false;

  auto need = [&](int& i) -> const char* {
    if (i + 1 >= argc) {
      std::fprintf(stderr, "missing value for %s\n", argv[i]);
      usage(2);
    }
    return argv[++i];
  };

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") usage(0);
    else if (arg == "--protocol") {
      const std::string name = need(i);
      if (protocol_registry().by_name(name) == nullptr) {
        std::fprintf(stderr, "unknown protocol '%s'\n", name.c_str());
        usage(2);
      }
      builder.protocol(name);
    } else if (arg == "--nodes") builder.nodes(static_cast<std::uint32_t>(std::atoi(need(i))));
    else if (arg == "--area") {
      const std::string v = need(i);
      const auto x = v.find('x');
      if (x == std::string::npos) usage(2);
      builder.area(std::atof(v.substr(0, x).c_str()), std::atof(v.substr(x + 1).c_str()));
    } else if (arg == "--vmax") builder.speed(0.1, std::atof(need(i)));
    else if (arg == "--pause") builder.pause(seconds_f(std::atof(need(i))));
    else if (arg == "--static") builder.static_nodes();
    else if (arg == "--mobility") builder.mobility(parse_mobility(need(i)));
    else if (arg == "--traffic") builder.traffic(
        std::strcmp(need(i), "onoff") == 0 ? TrafficKind::kOnOff : TrafficKind::kCbr);
    else if (arg == "--connections") builder.connections(
        static_cast<std::uint32_t>(std::atoi(need(i))));
    else if (arg == "--rate") builder.cbr_interval(seconds_f(1.0 / std::atof(need(i))));
    else if (arg == "--duration") builder.duration(seconds_f(std::atof(need(i))));
    else if (arg == "--loss") builder.frame_loss(std::atof(need(i)));
    else if (arg == "--no-rts") builder.with([](ScenarioConfig& c) { c.mac.use_rts = false; });
    else if (arg == "--trace") builder.trace(need(i));
    else if (arg == "--seed") builder.seed(std::strtoull(need(i), nullptr, 10));
    else if (arg == "--seeds") seeds = std::atoi(need(i));
    else if (arg == "--quiet") quiet = true;
    else {
      std::fprintf(stderr, "unknown option '%s'\n", arg.c_str());
      usage(2);
    }
  }

  const ScenarioConfig cfg = builder.build();
  if (!quiet) {
    std::printf("manetsim simulate — %s, %d replication(s)\n\n%s\n", to_string(cfg.protocol),
                seeds, cfg.parameter_table().c_str());
  }

  const ExperimentRunner runner(seeds > 0 ? seeds : 1);
  const Aggregate a = runner.run(cfg);

  std::printf("metric                 mean ± se\n");
  std::printf("---------------------  -------------------\n");
  std::printf("pdr_pct                %s\n",
              format_metric({a.pdr.mean * 100.0, a.pdr.se * 100.0}, 2).c_str());
  std::printf("delay_ms               %s\n", format_metric(a.delay_ms, 2).c_str());
  std::printf("nrl                    %s\n", format_metric(a.nrl, 3).c_str());
  std::printf("nml                    %s\n", format_metric(a.nml, 3).c_str());
  std::printf("throughput_kbps        %s\n", format_metric(a.throughput_kbps, 1).c_str());
  std::printf("avg_hops               %s\n", format_metric(a.avg_hops, 2).c_str());
  std::printf("connectivity_pct       %s\n",
              format_metric({a.connectivity.mean * 100.0, a.connectivity.se * 100.0}, 1).c_str());
  return 0;
}

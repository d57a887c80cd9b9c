#!/usr/bin/env python3
"""Repository benchmark: builds perfbench_run, runs one workload, prints metrics.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout. The C++ runner is configured and built
(Release) under .bench_build/perfbench, from scratch on first use; build
output goes to stderr. The runner prints raw per-replication records (see src/main.cpp);
this script turns them into the metrics named in BENCHMARK.json, checks every
replication's digest of simulated statistics, and prints one JSON object as
the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics, --trace 1 the per-layer ones.
Exit status: 0 when the outputs are correct, 1 when a check failed (the
result line is still printed) or the runner could not be built, crashed or
timed out (no result line), 2 on a usage error.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
RUNNER = os.path.join(BUILD_DIR, "perfbench_run")
REFERENCE = os.path.join(HERE, "reference.json")
RUNNER_TIMEOUT_S = 170

# Simulated-statistics counters summed over a pass's replications.
DROPS = {
    "mac": ["ifq_full", "retry_limit"],
    "net": ["arp_fail", "ttl_expired"],
    "routing": ["no_route", "buffer_timeout", "buffer_overflow", "loop", "protocol"],
    "transport": ["give_up"],
    "fault": ["node_down"],
}
# Ratios of host times; every other ratio is a simulated quantity.
HOST_RATIOS = {"sweep.busy_ratio", "trace.overhead_ratio"}
# Spans the traced run must see at least once on every workload.
SEAMS = ["mac_upcalls", "net_upcalls", "routing_upcalls"]


def log(msg):
    print(f"run.py: {msg}", file=sys.stderr, flush=True)


def load_json(path):
    with open(path, encoding="utf-8") as f:
        return json.load(f)


def parse_args(argv, workloads):
    p = argparse.ArgumentParser(prog="run.py", description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=workloads)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=int, default=10)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--reference", default=REFERENCE,
                   help="reference digests (default: perfbench/reference.json)")
    p.add_argument("--record-reference", action="store_true",
                   help="store this run's digests as the reference for (workload, seed)")
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error(f"argument --seed: must be >= 0, got {args.seed}")
    if args.seconds < 1:
        p.error(f"argument --seconds: must be >= 1, got {args.seconds}")
    return args


def build():
    """Configure and build the runner (quick when up to date); False on failure."""
    steps = [["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", BUILD_DIR, "-j", str(min(4, os.cpu_count() or 1))]]
    for cmd in steps:
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            log(f"build step failed: {' '.join(cmd)}")
            return False
    return True


def run_runner(args):
    """Run perfbench_run; returns (parsed records, crashed?)."""
    cmd = [RUNNER, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUNNER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log(f"runner timed out after {RUNNER_TIMEOUT_S} s")
        return [], True
    records = []
    for line in proc.stdout.splitlines():
        try:
            records.append(json.loads(line))
        except json.JSONDecodeError:
            log(f"runner printed a line that is not JSON: {line[:120]!r}")
            return records, True
    if proc.returncode != 0:
        log(f"runner exited with status {proc.returncode}")
    return records, proc.returncode != 0


def split_passes(records):
    """{(pass, traced): {"reps": [...], "wall_s": ..., "workers": n}}."""
    passes = {}
    for r in records:
        if r["type"] in ("rep", "pass"):
            p = passes.setdefault((r["pass"], r["traced"]), {"reps": []})
            if r["type"] == "rep":
                p["reps"].append(r)
            else:
                p["wall_s"] = r["wall_s"]
                p["workers"] = r["workers"]
    return passes


def check(passes, reference):
    """Return (attempted, failed, problems) over every replication run.

    A replication fails when its digest differs from the reference for its
    label or, for a label with no reference, from the digest the first run
    of that label produced: each traced replica is checked against its
    untraced original.
    """
    attempted = failed = 0
    problems = []
    expected = dict(reference or {})
    for (index, traced), p in sorted(passes.items()):
        for rep in p["reps"]:
            attempted += 1
            want = expected.setdefault(rep["label"], rep["digest"])
            if rep["digest"] != want:
                failed += 1
                problems.append(f"{rep['label']} (pass {index}{', traced' if traced else ''}): "
                                f"digest {rep['digest']} != {want}")
    return attempted, failed, problems


def totals(reps):
    out = {}
    for rep in reps:
        for k, v in rep["counters"].items():
            out[k] = out.get(k, 0) + v
    out["peak_queue_depth"] = max(r["counters"]["peak_queue_depth"] for r in reps)
    return out


def ratio(a, b):
    return a / b if b else 0.0


def end_to_end(passes, setup, end):
    untraced = [passes[k] for k in sorted(passes) if not k[1]]
    return {
        "wall_s": (statistics.median(p["wall_s"] for p in untraced), "s"),
        "rep_wall_s_p50": (statistics.median(r["run_s"] for p in untraced for r in p["reps"]), "s"),
        "setup_s": (statistics.median(setup["round_s"]), "s"),
        "peak_rss_mb": (end["peak_rss_bytes"] / 2**20, "MB"),
    }


def per_layer_pass(plain, traced):
    """Per-layer metrics from one (untraced, traced) pass pair."""
    u, t = totals(plain["reps"]), totals(traced["reps"])
    run_u = sum(r["run_s"] for r in plain["reps"])
    run_t = sum(r["run_s"] for r in traced["reps"])
    tx = t["data_tx"] + t["routing_tx"] + t["mac_ctrl_tx"] + t["arp_tx"]
    tapped = t["mac_self_s"] + t["net_self_s"] + t["routing_self_s"]
    m = {
        "core.events": (u["events"], "count"),
        "core.ns_per_event": (1e9 * ratio(run_u, u["events"]), "ns"),
        "core.peak_queue_depth": (u["peak_queue_depth"], "count"),
        "core.dispatch_self_s": (run_t - tapped, "s"),
        "phy.tx_frames": (tx, "count"),
        "phy.rx_frames": (t["phy_rx_frames"], "count"),
        "phy.busy_edges": (t["phy_busy_edges"], "count"),
        "phy.rx_per_tx": (ratio(t["phy_rx_frames"], tx), "ratio"),
        "phy.collisions": (t["collisions"], "count"),
        "mac.upcalls": (t["mac_upcalls"], "count"),
        "mac.self_s": (t["mac_self_s"], "s"),
        "mac.ns_per_upcall": (1e9 * ratio(t["mac_self_s"], t["mac_upcalls"]), "ns"),
        "mac.ctrl_tx": (t["mac_ctrl_tx"], "count"),
        "mac.deliveries": (t["mac_deliveries"], "count"),
        "mac.delivery_ratio": (ratio(t["mac_deliveries"], t["phy_rx_frames"]), "ratio"),
        "mac.link_failures": (t["mac_link_failures"], "count"),
        "net.upcalls": (t["net_upcalls"], "count"),
        "net.self_s": (t["net_self_s"], "s"),
        "net.arp_tx": (t["arp_tx"], "count"),
        "routing.upcalls": (t["routing_upcalls"], "count"),
        "routing.self_s": (t["routing_self_s"], "s"),
        "routing.ns_per_upcall": (1e9 * ratio(t["routing_self_s"], t["routing_upcalls"]), "ns"),
        "routing.tx": (t["routing_tx"], "count"),
        "routing.bytes": (t["routing_bytes"], "bytes"),
        "routing.nrl": (ratio(t["routing_tx"], t["data_delivered"]), "ratio"),
        "transport.retransmissions": (t["retransmissions"], "count"),
        "transport.flows": (t["flows"], "count"),
        "app.originated": (t["data_originated"], "count"),
        "app.delivered": (t["data_delivered"], "count"),
        "app.pdr": (ratio(t["data_delivered"], t["data_originated"]), "ratio"),
        "app.delay_ms": (ratio(t["delay_sum_ms"], t["data_delivered"]), "ms"),
        "scenario.build_s": (sum(r["build_s"] for r in plain["reps"]), "s"),
        "sweep.busy_ratio": (ratio(run_u, plain["workers"] * plain["wall_s"]), "ratio"),
        "sweep.rep_ns_per_event_p50": (
            1e9 * statistics.median(ratio(r["run_s"], r["counters"]["events"])
                                    for r in plain["reps"]), "ns"),
        "trace.overhead_ratio": (ratio(traced["wall_s"], plain["wall_s"]), "ratio"),
    }
    for layer, names in DROPS.items():
        for n in names:
            m[f"{layer}.drops.{n}"] = (t[f"drops.{n}"], "count")
    return m


def per_layer(passes):
    """Host-timed metrics: median over pass pairs. Simulated counts and
    ratios: pass 0 alone, so they repeat exactly for a given seed."""
    pairs = [(passes[(k, False)], passes[(k, True)])
             for k in sorted({k for k, traced in passes if traced})]
    runs = [per_layer_pass(u, t) for u, t in pairs]
    return {name: (statistics.median(r[name][0] for r in runs)
                   if unit in ("s", "ns") or name in HOST_RATIOS else value, unit)
            for name, (value, unit) in runs[0].items()}


def unfired_seams(passes):
    """Seams that no traced replication of some pass ever called."""
    missing = set()
    for (_, traced), p in passes.items():
        if traced:
            t = totals(p["reps"])
            missing.update(s for s in SEAMS if t.get(s, 0) == 0)
    return sorted(missing)


def main(argv):
    bench = load_json(os.path.join(ROOT, "BENCHMARK.json"))
    args = parse_args(argv, [w["name"] for w in bench["workloads"]])
    if not build():
        return 1
    records, crashed = run_runner(args)
    by_type = {r["type"]: r for r in records if r["type"] in ("setup", "end")}
    if crashed or "end" not in by_type:
        log(f"runner did not finish ({len(records)} records read); no result")
        return 1
    passes = split_passes(records)

    refs = load_json(args.reference) if os.path.exists(args.reference) else {}
    reference = refs.get(args.workload, {}).get(str(args.seed))
    attempted, failed, problems = check(passes, reference)
    if args.trace == 1:
        problems += [f"traced run never called seam {s}" for s in unfired_seams(passes)]
    for msg in problems:
        log(f"check failed: {msg}")

    if args.record_reference and not problems:
        digests = {r["label"]: r["digest"]
                   for (_, traced), p in passes.items() if not traced for r in p["reps"]}
        refs.setdefault(args.workload, {})[str(args.seed)] = digests
        with open(args.reference, "w", encoding="utf-8") as f:
            json.dump(refs, f, indent=1, sort_keys=True)
            f.write("\n")
        log(f"recorded {len(digests)} reference digests for {args.workload} seed {args.seed}")

    if args.trace == 0:
        metrics = end_to_end(passes, by_type["setup"], by_type["end"])
        metrics["pass_ratio"] = (ratio(attempted - failed, attempted), "ratio")
    else:
        metrics = per_layer(passes)
    correct = not problems
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))

#!/usr/bin/env python3
"""The repo benchmark: one defended run per workload, timed and verified.

    python3 perfbench/run.py --workload cloud_steady --seed 1 --seconds 30 --trace 0

Builds perfbench_runner from the sources in this checkout (CMake, into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench), measures set-up
time in fresh processes, runs the workload's fixed-size batch job repeatedly
for --seconds, verifies every repetition, and prints every metric by name and
unit.  The last line of standard output is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 reports the end-to-end metrics of BENCHMARK.json, --trace 1 the
per-layer ones.  The full report, with the host block, goes to
<build dir>/results/.  See perfbench/README.md.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ("cloud_steady", "cloud_storm", "fig8_campaign", "client_100k")
# What one work item is, per workload (the end-to-end throughput's unit).
ITEM = {
    "cloud_steady": "msgs_per_s",
    "cloud_storm": "msgs_per_s",
    "fig8_campaign": "cells_per_s",
    "client_100k": "client_rounds_per_s",
}
# Set-up is timed in fresh processes, half before and half after the main
# run, so the samples do not all share one phase of co-tenant load.
SETUP_PROCESSES = 16
RUNNER_TIMEOUT_S = 170


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build_dir():
    base = os.environ.get("CARGO_TARGET_DIR") or os.path.join(ROOT, ".bench_build")
    return os.path.join(os.path.abspath(base), "perfbench")


def build():
    """Configure (once) and build the runner; returns its path."""
    out = build_dir()
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", out,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr)
    subprocess.run(["cmake", "--build", out, "-j", str(os.cpu_count() or 1)],
                   check=True, stdout=sys.stderr)
    return os.path.join(out, "perfbench_runner")


def runner(binary, mode, args):
    proc = subprocess.run([binary, mode] + args, check=True, text=True,
                          stdout=subprocess.PIPE, timeout=RUNNER_TIMEOUT_S)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def best(values):
    """Throughput of a run: its best repetition.

    Every repetition simulates the identical input (the digests prove it), so
    they differ only by host interference, which only ever adds time.  On a
    shared host that interference comes in phases of seconds that swing
    throughput by 20-50%, so the best repetition is the steadiest estimate of
    the program's own cost; the repo's scaling benches use the same rule.
    """
    return max(values)


def unit_of(name):
    """Unit of a report-only layer metric, from its name's suffix."""
    for suffix, unit in (("_ms", "ms"), ("_us", "us"), ("_s", "s"), ("_frac", "frac")):
        if name.endswith(suffix):
            return unit
    return "ns" if ".ns_per_" in name else "count"


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return json.load(f)


def digest_key(seed, scale):
    """Key of a recorded digest: the seed, with the scale when it is not 1."""
    return str(seed) if scale == 1.0 else "%d@%g" % (seed, scale)


def load_digests(path):
    with open(path) as f:
        return json.load(f)


def verify(reps, recorded):
    """Failed repetitions: a failed output check, a digest that differs from
    the run's first repetition, or one that differs from the recorded digest
    for this workload and seed."""
    failed = 0
    first = reps[0]["digest"]
    for i, rep in enumerate(reps):
        why = list(rep["problems"])
        if rep["digest"] != first:
            why.append("digest %s differs from repetition 0 (%s)" % (rep["digest"], first))
        if recorded is not None and rep["digest"] != recorded:
            why.append("digest %s differs from the recorded %s" % (rep["digest"], recorded))
        if why:
            failed += 1
            log("repetition %d failed: %s" % (i, "; ".join(why)))
    return failed


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time (default: run_seconds of BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", type=float, default=1.0,
                    help="population scale; below 1 only for the smoke test")
    # Serial by default: on a shared 4-vCPU host a parallel sweep waits for
    # its slowest worker, and one contended vCPU made the best repetition
    # spread 0.1-0.2 across runs, against 0.01-0.06 serially.
    ap.add_argument("--threads", type=int, default=1,
                    help="shard_threads / jobs / threads of the workload")
    ap.add_argument("--min-reps", type=int, default=3)
    ap.add_argument("--digests", default=os.path.join(HERE, "digests.json"),
                    help="recorded digests, {workload: {digest key: digest}}")
    args = ap.parse_args()
    if args.seed < 0:
        ap.error("--seed must be >= 0")

    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    binary = build()
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--scale", repr(args.scale), "--threads", str(args.threads)]

    def setup_samples(n):
        return [runner(binary, "setup", common)["setup_s"] for _ in range(n)]

    setups = setup_samples(SETUP_PROCESSES // 2)
    result = runner(binary, "run", common + [
        "--seconds", repr(seconds), "--trace", str(args.trace),
        "--min-reps", str(args.min_reps)])
    setups += setup_samples(SETUP_PROCESSES - SETUP_PROCESSES // 2)
    reps = result["reps"]

    recorded = None
    if os.path.exists(args.digests):
        recorded = load_digests(args.digests).get(args.workload, {}).get(
            digest_key(args.seed, args.scale))
    failed = verify(reps, recorded)

    # Repetition 0 warms caches and lazy tables; it is verified, not timed.
    timed = reps[1:] if len(reps) > 1 else reps
    untraced = [r for r in timed if not r["traced"]]
    traced = [r for r in timed if r["traced"]]
    throughput = best(r["items"] / r["run_s"] for r in (untraced or timed))

    metrics = {}
    if args.trace == 0:
        values = {
            "items_per_s": throughput,
            "setup_s": statistics.median(setups),
            # One defended run in a fresh process; later repetitions only
            # add allocator retention.
            "peak_rss_mb": reps[0]["peak_rss_mb"],
        }
        for m in spec["end_to_end"]:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
        report = dict(metrics)
    else:
        layers = {}
        for key in reps[0]["layers"]:
            layers[key] = statistics.median(r["layers"][key] for r in (traced or reps[:1]))
        # Memory per client is read once, from the fresh process's first
        # repetition; later ones reuse freed pages.
        layers["mem.rss_bytes_per_client"] = reps[0]["layers"].get("mem.rss_bytes_per_client", 0.0)
        traced_tp = best(r["items"] / r["run_s"] for r in (traced or reps[:1]))
        layers["trace.overhead_frac"] = 1.0 - traced_tp / throughput
        for m in spec["per_layer"]:
            metrics[m["name"]] = {"value": layers.get(m["name"], 0.0), "unit": m["unit"]}
        report = dict(metrics)
        for key, value in sorted(layers.items()):
            report.setdefault(key, {"value": value, "unit": unit_of(key)})

    # Human-readable report, then the host-tagged record, then the result.
    per_rep = sorted(r["items"] / r["run_s"] for r in (untraced or timed))
    spread = {"best": per_rep[-1], "median": statistics.median(per_rep),
              "worst": per_rep[0], "timed_reps": len(per_rep)}
    print("workload %s  seed %d  trace %d  repetitions %d  %s: best %.6g, median %.6g"
          % (args.workload, args.seed, args.trace, len(reps), ITEM[args.workload],
             spread["best"], spread["median"]))
    for name, m in report.items():
        print("  %-28s %16.6g %s" % (name, m["value"], m["unit"]))
    results = {name: m["value"] for name, m in report.items()}
    results.update({ITEM[args.workload]: spread, "failed_frac": failed / len(reps),
                    "digest": reps[0]["digest"], "recorded_digest": recorded})
    record = {"bench": "perfbench/" + args.workload, "host": result["host"],
              "results": results}
    out_dir = os.path.join(build_dir(), "results")
    os.makedirs(out_dir, exist_ok=True)
    out_path = os.path.join(out_dir, "%s-seed%d-trace%d.json"
                            % (args.workload, args.seed, args.trace))
    with open(out_path, "w") as f:
        json.dump(dict(record, setup_s_samples=setups, reps=reps), f, indent=1)
    print("report: %s" % out_path)
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired,
            OSError, ValueError, KeyError) as e:
        log("perfbench: %s" % e)
        sys.exit(1)

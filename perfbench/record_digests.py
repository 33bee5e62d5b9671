#!/usr/bin/env python3
"""Record the verification digests of the benchmark's workloads.

    python3 perfbench/record_digests.py --seeds 0-31

Runs each workload once per seed at full size, at 4 threads and (with
--check-threads) at 1 thread as well, requires the two to agree, and writes
perfbench/digests.json ({workload: {seed: digest}}).  Re-record only when a
change is meant to alter simulated behaviour; a speed-only change must leave
every digest as recorded.
"""

import argparse
import json
import os
import subprocess
import sys

import run as bench


def digest(binary, workload, seed, threads):
    result = bench.runner(binary, "run", [
        "--workload", workload, "--seed", str(seed), "--threads", str(threads),
        "--seconds", "0", "--min-reps", "1"])
    rep = result["reps"][0]
    if rep["problems"]:
        raise SystemExit("%s seed %d: %s" % (workload, seed, rep["problems"]))
    return rep["digest"]


def main():
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-2", help="inclusive range, e.g. 0-31")
    ap.add_argument("--check-threads", action="store_true")
    args = ap.parse_args()
    lo, hi = (int(x) for x in args.seeds.split("-"))
    binary = bench.build()
    path = os.path.join(bench.HERE, "digests.json")
    recorded = bench.load_digests(path) if os.path.exists(path) else {}
    for w in bench.WORKLOADS:
        for seed in range(lo, hi + 1):
            d = digest(binary, w, seed, 4)
            if args.check_threads and digest(binary, w, seed, 1) != d:
                raise SystemExit("%s seed %d: 1 and 4 threads disagree" % (w, seed))
            recorded.setdefault(w, {})[str(seed)] = d
            print(w, seed, d, flush=True)
    with open(path, "w") as f:
        json.dump(recorded, f, indent=1, sort_keys=True)
        f.write("\n")


if __name__ == "__main__":
    try:
        main()
    except subprocess.CalledProcessError as e:
        sys.exit("perfbench: %s" % e)

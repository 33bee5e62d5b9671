#!/usr/bin/env python3
"""Reduced-size self-test of the benchmark.

    python3 perfbench/smoke_test.py

For every workload, at a small population scale, it checks that:
  * every metric named in BENCHMARK.json is emitted, with its unit, in both
    the end-to-end (--trace 0) and the per-layer (--trace 1) mode;
  * two runs with the same seed produce identical digests, at 4 threads and
    at 1 thread;
  * a run whose recorded digest matches passes, and a run against a tampered
    recorded digest counts every repetition as failed.
Exits non-zero on the first failed check.
"""

import json
import os
import subprocess
import sys

import run as bench

SCALE = 0.05
SEED = 7


def invoke(workload, trace, threads=4, digests=None):
    cmd = [sys.executable, os.path.join(bench.HERE, "run.py"),
           "--workload", workload, "--seed", str(SEED), "--seconds", "0",
           "--min-reps", "2", "--trace", str(trace), "--scale", str(SCALE),
           "--threads", str(threads)]
    if digests is not None:
        cmd += ["--digests", digests]
    out = subprocess.run(cmd, check=True, text=True, stdout=subprocess.PIPE,
                         stderr=subprocess.DEVNULL).stdout.strip().splitlines()
    record = json.loads(out[-2])
    return record["results"]["digest"], json.loads(out[-1])


def check(ok, what):
    print("%-4s %s" % ("ok" if ok else "FAIL", what), flush=True)
    if not ok:
        sys.exit(1)


def main():
    spec = bench.load_spec()
    workdir = os.path.join(bench.build_dir(), "smoke")
    os.makedirs(workdir, exist_ok=True)
    none_recorded = os.path.join(workdir, "none.json")
    with open(none_recorded, "w") as f:
        json.dump({}, f)
    key = bench.digest_key(SEED, SCALE)

    for w in bench.WORKLOADS:
        for trace, section in ((0, "end_to_end"), (1, "per_layer")):
            digest, result = invoke(w, trace, digests=none_recorded)
            check(result["correct"] and result["failed"] == 0
                  and result["attempted"] >= 2,
                  "%s trace %d: correct, %d repetitions" % (w, trace, result["attempted"]))
            missing = [m["name"] for m in spec[section]
                       if result["metrics"].get(m["name"], {}).get("unit") != m["unit"]]
            check(not missing and len(result["metrics"]) == len(spec[section]),
                  "%s trace %d: every %s metric with its unit %s"
                  % (w, trace, section, missing or ""))
            if trace == 0:
                first = digest

        again, _ = invoke(w, 0, digests=none_recorded)
        serial, _ = invoke(w, 0, threads=1, digests=none_recorded)
        check(again == first, "%s: same seed, same digest (%s)" % (w, first))
        check(serial == first, "%s: 1 thread and 4 threads agree" % w)

        path = os.path.join(workdir, "recorded.json")
        with open(path, "w") as f:
            json.dump({w: {key: first}}, f)
        _, result = invoke(w, 0, digests=path)
        check(result["failed"] == 0, "%s: recorded digest accepted" % w)
        with open(path, "w") as f:
            json.dump({w: {key: "%016x" % (int(first, 16) ^ 1)}}, f)
        _, result = invoke(w, 0, digests=path)
        check(not result["correct"] and result["failed"] == result["attempted"],
              "%s: tampered digest fails all %d repetitions" % (w, result["attempted"]))


if __name__ == "__main__":
    main()

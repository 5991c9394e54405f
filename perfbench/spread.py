#!/usr/bin/env python3
"""Runs the benchmark on several seeds and prints, per end-to-end metric, the
median, the quartiles and the spread (IQR / median) next to the metric's
bound from BENCHMARK.json.

    python3 perfbench/spread.py --workload ipc10 --seeds 1-10 [--seconds 30]
"""

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.dont_write_bytecode = True
sys.path.insert(0, HERE)
import stats  # noqa: E402


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--seconds", type=int)
    args = ap.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    seconds = args.seconds or bench["run_seconds"]

    values = {}
    for seed in parse_seeds(args.seeds):
        proc = subprocess.run([sys.executable, os.path.join(HERE, "run.py"), "--workload",
                               args.workload, "--seed", str(seed), "--seconds", str(seconds),
                               "--trace", "0"], cwd=ROOT, stdout=subprocess.PIPE, text=True)
        last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else "{}"
        result = json.loads(last) if proc.returncode == 0 else {}
        if not result.get("correct"):
            print("seed %d: run failed or incorrect (exit %d)" % (seed, proc.returncode))
            continue
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        print("seed %d: %s" % (seed, " ".join("%s=%.4g" % (n, m["value"])
                                               for n, m in result["metrics"].items())),
              flush=True)

    print("%-28s %12s %12s %12s %8s %6s" % ("metric", "q1", "median", "q3", "spread", "bound"))
    for m in bench["end_to_end"]:
        vs = values.get(m["name"], [])
        if len(vs) < 2:
            print("%-28s too few values" % m["name"])
            continue
        q1, q2, q3 = stats.quartiles(vs)
        print("%-28s %12.4f %12.4f %12.4f %8.4f %6.3f" % (m["name"], q1, q2, q3,
                                                          stats.spread(vs), m["bound"]))


if __name__ == "__main__":
    main()

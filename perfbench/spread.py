#!/usr/bin/env python3
"""Run-to-run spread of the end-to-end metrics, as the acceptance rule
measures it.

    python3 perfbench/spread.py --workload served --seeds 1-10 [--trace 0]

Runs perfbench/run.py once per seed with BENCHMARK.json's run_seconds and
prints, per metric, the median over the runs and the spread: the distance
between the first and third quartile (statistics.quantiles, n=4) as a
share of the median, next to the metric's bound.  A metric is steady
when its spread is below a third of its bound (setup_s is exempt).
"""

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def seeds(text):
    out = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        out.extend(range(int(lo), int(hi or lo) + 1))
    return out


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", default="0")
    args = parser.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    bounds = {m["name"]: m.get("bound") for m in bench["end_to_end"]}
    values = {}
    for seed in seeds(args.seeds):
        cmd = bench["command"] + ["--workload", args.workload, "--seed",
                                  str(seed), "--seconds",
                                  str(bench["run_seconds"]), "--trace",
                                  args.trace]
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = done.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if lines else {}
        if done.returncode != 0 or not result.get("correct"):
            sys.stderr.write(done.stderr)
            print("seed %d: exit %d, result %s" % (seed, done.returncode,
                                                  json.dumps(result)[:300]))
            continue
        for name, metric in result["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
        print("seed %d: %s" % (seed, " ".join(
            "%s=%.6g" % (n, m["value"]) for n, m in result["metrics"].items())))
        sys.stdout.flush()
    for name, v in values.items():
        if len(v) < 2:
            continue
        q1, _, q3 = statistics.quantiles(v, n=4)
        med = statistics.median(v)
        spread = (q3 - q1) / med if med else float("inf")
        bound = bounds.get(name)
        verdict = ""
        if bound:
            verdict = "steady" if spread < bound / 3 else (
                "within bound" if spread <= bound else "TOO WIDE")
        print("%-18s median %-12.6g spread %.4f bound %s %s" % (
            name, med, spread, bound, verdict))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Self-test of the benchmark at its smallest size (one-second runs).

    python3 perfbench/selftest.py

Checks, for every workload in BENCHMARK.json:
  * --trace 0 prints every end-to-end metric, and --trace 1 every per-layer
    metric, with the declared units, and both runs pass their checks;
  * --print-jobs prints the generated jobs in the --serve-batch format;
and once:
  * a deliberately corrupted rewriting (--corrupt) is caught: the run
    reports correct=false and exits non-zero;
  * a directory holding only BENCHMARK.json and perfbench/ makes the
    benchmark exit non-zero without printing a result.
Exits non-zero when any check fails.
"""

import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
FAILURES = []


def check(ok, what):
    print(("ok    " if ok else "FAIL  ") + what)
    sys.stdout.flush()
    if not ok:
        FAILURES.append(what)


def run(args, cwd=ROOT):
    done = subprocess.run([sys.executable, os.path.join(cwd, "perfbench", "run.py")]
                          + args, cwd=cwd, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except ValueError:
        result = None
    return done.returncode, result, done.stdout


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        bench = json.load(f)
    declared = {
        "0": {m["name"]: m["unit"] for m in bench["end_to_end"]},
        "1": {m["name"]: m["unit"] for m in bench["per_layer"]},
    }
    for workload in (w["name"] for w in bench["workloads"]):
        for trace in ("0", "1"):
            code, result, _ = run(["--workload", workload, "--seed", "1",
                                   "--seconds", "1", "--trace", trace])
            what = "%s --trace %s" % (workload, trace)
            check(code == 0 and result is not None and result["correct"],
                  what + ": exits 0 with correct=true")
            if result is None:
                continue
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            check(got == declared[trace],
                  what + ": prints exactly the declared metrics and units")
            check(result["attempted"] >= 1 and result["failed"] == 0,
                  what + ": attempted >= 1, failed = 0")
        code, _, out = run(["--workload", workload, "--seed", "1",
                            "--print-jobs"])
        check(code == 0 and "query " in out and "\nrun\n" in out,
              workload + " --print-jobs: prints the job stream")

    code, result, _ = run(["--workload", "fig4", "--seed", "1", "--seconds",
                           "1", "--trace", "0", "--corrupt"])
    check(code != 0 and result is not None and not result["correct"] and
          result["failed"] >= 1,
          "fig4 --corrupt: the corrupted rewriting is caught")

    bare = os.path.join(ROOT, ".bench_build", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    shutil.copytree(HERE, os.path.join(bare, "perfbench"))
    code, result, out = run(["--workload", "fig4", "--seed", "1",
                             "--seconds", "1", "--trace", "0"], cwd=bare)
    check(code != 0 and result is None,
          "without the sources: exits non-zero and prints no result")
    shutil.rmtree(bare, ignore_errors=True)

    print("%d failure(s)" % len(FAILURES))
    sys.exit(1 if FAILURES else 0)


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Builds the cqac benchmark from source and runs one measurement.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload fig4|chain|served --seed N \
        --seconds S --trace 0|1

Builds the library, cqacd and the benchmark binary (Release) into
.bench_build/perfbench, then runs the binary with the same arguments.  The
last line of standard output is the result object
{"correct", "attempted", "failed", "metrics"}; the line before it is the
run's full record.  Extra flags (--print-jobs, --corrupt,
--out-dir DIR) pass through.  Exits non-zero when the sources are missing,
the build fails, or a check fails.
"""

import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "bin", "cqac_perfbench")


def fail(message, code=2):
    sys.stderr.write("perfbench: " + message + "\n")
    sys.exit(code)


def build():
    for needed in ("src/CMakeLists.txt", "tools/cqacd.cc"):
        if not os.path.isfile(os.path.join(ROOT, needed)):
            fail("missing " + needed + "; run from a checkout of the repository")
    os.makedirs(BUILD, exist_ok=True)
    log_path = os.path.join(BUILD, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    with open(log_path, "w") as log:
        for step in steps:
            try:
                done = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=840)
            except subprocess.TimeoutExpired:
                fail("build timed out; see " + log_path, 1)
            if done.returncode != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-40:]))
                fail("build failed; see " + log_path, 1)


def main():
    build()
    try:
        done = subprocess.run([BINARY] + sys.argv[1:], cwd=ROOT, timeout=175)
    except subprocess.TimeoutExpired:
        fail("benchmark run timed out", 1)
    sys.exit(done.returncode)


if __name__ == "__main__":
    main()

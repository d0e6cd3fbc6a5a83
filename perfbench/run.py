#!/usr/bin/env python3
"""Build and run the repository benchmark (design and metrics: README.md).

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout. It builds perfbench/ and the library
under .bench_build/, runs the self-test of the benchmark's online checks,
then one measured run. The last line of standard output is the result as one
JSON object; build logs and diagnostics go to standard error.
"""

import argparse
import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"
TRACES = ROOT / ".bench_build" / "traces"
WORKLOADS = ("uniform-1m", "scan-16k", "zipf-1m")
# A first run (configure + build + self-test + run) stays under 900 s; a
# later one (no-op build + self-test + run) under 180 s.
CONFIGURE_TIMEOUT_S = 120
BUILD_TIMEOUT_S = 600
SELFTEST_TIMEOUT_S = 20
RUN_TIMEOUT_S = 150


def fail(message):
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def run(cmd, timeout):
    # subprocess.run kills and reaps the child when the timeout expires.
    try:
        return subprocess.run(cmd, capture_output=True, text=True, timeout=timeout)
    except subprocess.TimeoutExpired:
        fail(f"timed out after {timeout} s: {' '.join(cmd)}")
    except OSError as e:
        fail(f"cannot run {cmd[0]}: {e}")


def checked(cmd, timeout, what):
    r = run(cmd, timeout)
    if r.returncode != 0:
        sys.stderr.write(r.stdout + r.stderr)
        fail(f"{what} failed (exit {r.returncode})")
    return r


def build():
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        fail(f"no citrus sources in {ROOT}: run.py builds the library from them")
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        checked(["cmake", "-S", str(HERE), "-B", str(BUILD), *generator],
                CONFIGURE_TIMEOUT_S, "configure")
    jobs = str(min(4, os.cpu_count() or 1))
    checked(["cmake", "--build", str(BUILD), "-j", jobs], BUILD_TIMEOUT_S, "build")
    return BUILD / "perfbench"


def main():
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int, choices=range(1, 61),
                   metavar="1..60")
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    a = p.parse_args()
    if a.seed < 0:
        p.error("--seed must be a non-negative integer")

    exe = build()
    selftest = checked([str(exe), "--selftest"], SELFTEST_TIMEOUT_S, "self-test")
    sys.stderr.write(selftest.stdout)

    TRACES.mkdir(parents=True, exist_ok=True)
    r = checked([str(exe), "--workload", a.workload, "--seed", str(a.seed),
                 "--seconds", str(a.seconds), "--trace", str(a.trace),
                 "--trace-out", str(TRACES)], RUN_TIMEOUT_S, "benchmark run")
    lines = r.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
    except (IndexError, ValueError, AssertionError):
        sys.stderr.write(r.stdout + r.stderr)
        fail("the benchmark printed no result line")
    sys.stderr.write(r.stderr)
    print("\n".join(lines[:-1]))
    print(json.dumps(result))


if __name__ == "__main__":
    main()

#!/usr/bin/env python3
"""Real-engine benchmark: build, run, self-test.

Run from the repository root:

    python3 perfbench/run.py --workload wordcount --seed 1 --seconds 20 --trace 0
    python3 perfbench/run.py --selftest

The first call configures and builds the engine from src/ and the
benchmark from perfbench/ into the build directory ($CARGO_TARGET_DIR,
default .bench_build); later calls rebuild only what changed.  Build
output goes to stderr, so the last line of stdout is always the
benchmark's JSON result.  Extra flags (--smoke) pass through to the
benchmark binary.
"""

import argparse
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
REPO = os.path.dirname(HERE)
BUILD = os.path.join(REPO, os.environ.get("CARGO_TARGET_DIR", ".bench_build"))


def fail(message, code=2):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(code)


def build(targets):
    if not os.path.isfile(os.path.join(REPO, "src", "CMakeLists.txt")):
        fail("engine sources not found under " + os.path.join(REPO, "src"))
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(
            ["cmake", "-S", HERE, "-B", BUILD,
             "-DCMAKE_BUILD_TYPE=RelWithDebInfo"],
            stdout=sys.stderr, check=True)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", BUILD, "-j", jobs, "--target"] +
                   targets, stdout=sys.stderr, check=True)


# The code a result was measured with: the engine and the benchmark,
# not the benchmark's documentation or recorded results.
CODE = ("src", "perfbench/src", "perfbench/tests", "perfbench/CMakeLists.txt",
        "perfbench/run.py")


def source_digest():
    """Content hash of the code in CODE (the checkout the benchmark
    runs in need not be a git repository)."""
    h = hashlib.sha256()
    for top in CODE:
        paths = [os.path.join(REPO, top)]
        if os.path.isdir(paths[0]):
            paths = []
            for root, dirs, files in os.walk(os.path.join(REPO, top)):
                dirs.sort()
                paths += [os.path.join(root, name) for name in sorted(files)]
        for path in paths:
            h.update(os.path.relpath(path, REPO).encode())
            with open(path, "rb") as f:
                h.update(f.read())
    return h.hexdigest()[:16]


def git_commit():
    if not os.path.isdir(os.path.join(REPO, ".git")):
        return "none (not a git checkout)"
    out = subprocess.run(["git", "-C", REPO, "rev-parse", "HEAD"],
                         capture_output=True, text=True)
    return out.stdout.strip() or "unknown"


def run_bench(args, capture=False):
    scratch = os.path.join(BUILD, "scratch-%d" % os.getpid())
    env = dict(os.environ, PB_GIT_COMMIT=git_commit(),
               PB_SOURCE_DIGEST=source_digest())
    cmd = [os.path.join(BUILD, "perfbench")] + args + ["--scratch", scratch]
    try:
        return subprocess.run(cmd, env=env, text=True,
                              stdout=subprocess.PIPE if capture else None)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)


def benchmark_names():
    with open(os.path.join(REPO, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ({m["name"] for m in spec["end_to_end"]},
            {m["name"] for m in spec["per_layer"]},
            [w["name"] for w in spec["workloads"]])


def selftest():
    """Unit self-tests, then a smoke run of every workload in both
    modes whose printed metric names must be exactly BENCHMARK.json's."""
    build(["perfbench", "perfbench_selftest"])
    code = subprocess.run([os.path.join(BUILD, "perfbench_selftest")]).returncode
    if code != 0:
        fail("unit self-tests failed", 1)
    end_to_end, per_layer, workloads = benchmark_names()
    for workload in workloads:
        for trace, expected in (("0", end_to_end), ("1", per_layer)):
            p = run_bench(["--workload", workload, "--seed", "7",
                           "--seconds", "1", "--trace", trace, "--smoke"],
                          capture=True)
            lines = p.stdout.strip().splitlines()
            if p.returncode != 0 or not lines:
                fail("%s trace=%s exited %d" % (workload, trace,
                                                p.returncode), 1)
            result = json.loads(lines[-1])
            stamp = json.loads(lines[-2])["stamp"]
            names = set(result["metrics"])
            problems = []
            if names != expected:
                problems.append("names %s" % sorted(names ^ expected))
            if not result["correct"] or result["failed"] != 0:
                problems.append("incorrect output")
            if stamp["size"] != "smoke":
                problems.append("smoke run not labelled smoke")
            print("%-14s trace=%s %s" % (workload, trace,
                                         "; ".join(problems) or "ok"))
            if problems:
                sys.exit(1)


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--selftest", action="store_true")
    args, rest = parser.parse_known_args()
    if args.selftest:
        selftest()
        return 0
    build(["perfbench"])
    return run_bench(rest).returncode


if __name__ == "__main__":
    sys.exit(main())

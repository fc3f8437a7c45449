#!/usr/bin/env python3
"""Build and run the perfbench benchmark of the LP server and store.

    python3 perfbench/run.py --workload served_update --seed 1 \
        --seconds 20 --trace 0

Builds perfbench/ (CMake, Release) into .bench_build/ at the root of
the checkout, runs lpbench with the given workload, checks that its
result names exactly the metrics BENCHMARK.json declares for the trace
mode (with the declared units), and re-prints that result as the last
line of standard output. Exits non-zero on a build failure, a wrong
answer, or a result that does not match BENCHMARK.json.

Per-layer metrics of a layer the workload never reaches (the commit
path on served_read_scan, the scan path on served_update) are reported
by lpbench as 0; a metric missing from its result fails the run. A
traced run leaves its Chrome trace files (server and client)
in .bench_build/work for Perfetto.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
WORK = os.path.join(ROOT, ".bench_build", "work")
RUN_TIMEOUT_S = 170


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    """Configure and build lpbench; the lock serializes parallel runs."""
    os.makedirs(BUILD, exist_ok=True)
    with open(os.path.join(BUILD, ".lock"), "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
            steps.append(["cmake", "-S", HERE, "-B", BUILD,
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", BUILD, "--target", "lpbench",
                      "-j", str(os.cpu_count() or 1)])
        for cmd in steps:
            res = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
            if res.returncode != 0:
                log("perfbench: build failed: " + " ".join(cmd))
                return None
    return os.path.join(BUILD, "lpbench")


def source_id():
    """git sha of the checkout, or a digest of src/ when not a repo."""
    try:
        git = subprocess.run(["git", "-C", ROOT, "rev-parse",
                              "--show-toplevel", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        top, _, sha = git.stdout.partition("\n")
        if git.returncode == 0 and os.path.samefile(top, ROOT):
            return sha.strip()
    except OSError:
        pass
    h = hashlib.sha256()
    for d in ("src", "perfbench"):
        for base, dirs, files in sorted(os.walk(os.path.join(ROOT, d))):
            dirs.sort()
            for f in sorted(files):
                with open(os.path.join(base, f), "rb") as fh:
                    h.update(f.encode() + fh.read())
    return "src-sha256:" + h.hexdigest()[:16]


def declared(trace):
    """name -> unit of the metrics BENCHMARK.json declares."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    key = "per_layer" if trace else "end_to_end"
    return {m["name"]: m["unit"] for m in spec[key]}


def conform(result, trace):
    """Check the result's metric names and units against BENCHMARK.json.
    Returns a list of problems."""
    want = declared(trace)
    got = result["metrics"]
    problems = []
    for name, m in got.items():
        if name not in want:
            problems.append("undeclared metric " + name)
        elif m["unit"] != want[name]:
            problems.append("unit of %s is %s, declared %s"
                            % (name, m["unit"], want[name]))
    for name in want:
        if name not in got:
            problems.append("missing metric " + name)
    return problems


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--inject-wrong", action="store_true",
                    help="corrupt one expected value (must fail)")
    args = ap.parse_args()

    binary = build()
    if binary is None:
        return 1
    shutil.rmtree(WORK, ignore_errors=True)  # a killed run's shard files
    os.makedirs(WORK, exist_ok=True)

    cmd = [binary, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--work-dir", WORK, "--git-sha", source_id()]
    if args.inject_wrong:
        cmd.append("--inject-wrong")
    try:
        res = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                             timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        log("perfbench: lpbench did not finish in %d s" % RUN_TIMEOUT_S)
        return 1
    lines = res.stdout.splitlines()
    for line in lines[:-1]:
        print(line)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        log("perfbench: lpbench printed no result (exit %d)"
            % res.returncode)
        return 1
    problems = conform(result, args.trace == 1)
    for p in problems:
        log("perfbench: " + p)
    print(json.dumps(result), flush=True)
    if problems:
        return 1
    return 0 if res.returncode == 0 and result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Smoke test of the perfbench benchmark: short runs, full checks.

    python3 perfbench/smoke.py

For every workload in BENCHMARK.json, in both trace modes, runs
run.py for SMOKE_SECONDS and checks that it exits 0 with a verified
result that names every declared metric with its declared unit.
Then runs one
workload with a deliberately corrupted expected value and checks that
verification fails (non-zero exit, "correct": false). Exits 0 only if
every check passed.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SMOKE_SECONDS = 2


def run(workload, trace, extra=()):
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", "7", "--seconds", str(SMOKE_SECONDS), "--trace",
           str(trace)] + list(extra)
    res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = res.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        result = None
    return res.returncode, result


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)

    failures = []
    for w in spec["workloads"]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            label = "%s trace=%d" % (w["name"], trace)
            code, result = run(w["name"], trace)
            if code != 0 or result is None or not result["correct"]:
                failures.append(label + ": run failed (exit %d)" % code)
                continue
            got = result["metrics"]
            for m in spec[key]:
                if m["name"] not in got:
                    failures.append("%s: %s missing" % (label, m["name"]))
                elif got[m["name"]]["unit"] != m["unit"]:
                    failures.append("%s: %s has unit %s, declared %s"
                                    % (label, m["name"],
                                       got[m["name"]]["unit"], m["unit"]))
            if set(got) != {m["name"] for m in spec[key]}:
                failures.append(label + ": undeclared metrics printed")
            if result["attempted"] < 1:
                failures.append(label + ": nothing attempted")
            print("ok   " + label, flush=True)

    # Negative check: a wrong expected value must fail verification.
    w = spec["workloads"][0]["name"]
    code, result = run(w, 0, ["--inject-wrong"])
    if code == 0 or result is None or result["correct"]:
        failures.append(w + ": a corrupted expectation was not detected")
    else:
        print("ok   %s --inject-wrong fails verification" % w)

    for f in failures:
        print("FAIL " + f)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())

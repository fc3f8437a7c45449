#!/usr/bin/env python3
"""Compare the perfbench simulator gate with its committed golden values.

    python3 perfbench/run.py --workload served_update --seed 1 \\
        --seconds 1 --trace 0 > result.json
    python3 tools/check_sim_gate.py result.json

The simulator tier of perfbench is deterministic: for a given workload
and seed, the six gate metrics (nvmm_writes_per_mut.* and
sim_kops_per_s.* for the lp, eager and wal backends) are the same on
every run and every machine. This script reads the result run.py
printed (its last line) for the command the golden file records, and
requires each gate metric to equal the golden value exactly. Any
drift, better or worse, fails: a change to the simulated NVMM traffic
has to be deliberate, and re-recording tools/sim_gate_golden.json
from that command's result is how a change declares it.

Exit status: 0 when every value matches, 1 otherwise (with one line per
mismatch on stderr).
"""

import argparse
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("result", help="run.py output ('-' for stdin)")
    ap.add_argument("--golden",
                    default=os.path.join(HERE, "sim_gate_golden.json"))
    args = ap.parse_args()

    with (sys.stdin if args.result == "-" else open(args.result)) as f:
        lines = f.read().splitlines()
    with open(args.golden) as f:
        golden = json.load(f)
    try:
        result = json.loads(lines[-1])
    except (IndexError, ValueError):
        print("check_sim_gate: no result line in " + args.result,
              file=sys.stderr)
        return 1

    problems = []
    if not result.get("correct"):
        problems.append("the run reported a wrong answer")
    metrics = result.get("metrics", {})
    for name, want in sorted(golden["metrics"].items()):
        got = metrics.get(name, {}).get("value")
        if got != want:
            problems.append("%s = %r, golden %r" % (name, got, want))

    for p in problems:
        print("check_sim_gate: " + p, file=sys.stderr)
    if not problems:
        print("check_sim_gate: %d gate metrics match %s"
              % (len(golden["metrics"]), os.path.relpath(args.golden)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

#!/usr/bin/env python3
"""Compare a deterministic simulator result with its committed golden.

    python3 perfbench/run.py --workload served_update --seed 1 \\
        --seconds 1 --trace 0 > result.json
    python3 tools/check_sim_gate.py result.json

    build/bench/bench_fig10_schemes fig10.json
    python3 tools/check_sim_gate.py fig10.json --gate fig10

Each gate has one golden file, tools/<gate>_golden.json, holding the
command that produces its result and the metric values that result
must carry:

    sim_gate  perfbench's simulator tier (nvmm_writes_per_mut.* and
              sim_kops_per_s.* for the lp, eager and wal backends)
    fig10     bench_fig10_schemes: Figure 10's cycles, NVMM writes and
              reads per scheme, windowed and full-run
    table6    bench_table6_hazards: Table VI's hazard counters, L2
              traffic and volatility durations per scheme
    fig11     bench_fig11_periodic_flush: Figure 11's windowed tmm
              cycles and NVMM writes without a cleaner (base, LP,
              EagerRecompute) and for LP at each cleaner period
    fig12     bench_fig12_exec_time (its first report): Figure 12's
              cycles and NVMM writes per kernel for base, LP and
              EagerRecompute
    fig13     bench_fig12_exec_time (its second report): Figure 13's
              NVMM writes and reads per kernel for base, LP and
              EagerRecompute, from the same fifteen runs
    recovery_time
              bench_recovery_time: recovery + resume cycles and the
              regions matched and repaired after a mid-run tmm crash,
              per cleaner period and per tile size, with each tile
              size's base and LP cycles
    kernel_recovery
              bench_recovery_time (its second report): recovery +
              resume cycles, regions checked, matched and repaired,
              and the resume stage after a crash at half of each of
              Cholesky's, 2D-conv's, Gauss's, FFT's and SpMV's LP
              stores
    fig14     bench_fig14_sensitivity: Figure 14's tmm cycles and NVMM
              writes per NVMM latency (base, LP, EagerRecompute) and
              per thread count (base, LP)
    fig15     bench_fig15_cache_checksum: Figure 15's tmm cycles, NVMM
              writes, L2 misses and L2 accesses per L2 size (base, LP)
              and per checksum kind (LP, with base and EagerRecompute
              at the paper's L2)
    store_recovery
              lazyper_cli store --crash-at: LP store recovery's
              simulated cycles, batches and records replayed and
              batches discarded after a crash on the sim_gate geometry

The --gate choices are the names of the tools/*_golden.json files, so
a new gate needs only its golden file.

Every gate is deterministic: for a given command the values are the
same on every run and every machine. The result is the JSON object on
the last line of the file, in the shape perfbench prints
({"correct": ..., "metrics": {name: {"value": v}}}). It must report
correct, and each golden metric must equal the golden value exactly.
Any drift, better or worse, fails: a change to the simulated machine
has to be deliberate, and re-recording the gate's golden file from
its command's result is how a change declares it.

Exit status: 0 when every value matches, 1 otherwise (with one line per
mismatch on stderr).
"""

import argparse
import glob
import json
import os
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_SUFFIX = "_golden.json"
GATES = sorted(os.path.basename(p)[:-len(GOLDEN_SUFFIX)]
               for p in glob.glob(os.path.join(HERE, "*" + GOLDEN_SUFFIX)))


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("result", help="result file ('-' for stdin)")
    ap.add_argument("--gate", default="sim_gate",
                    choices=GATES,
                    help="compare with tools/<gate>_golden.json")
    args = ap.parse_args()
    golden_path = os.path.join(HERE, args.gate + GOLDEN_SUFFIX)

    with (sys.stdin if args.result == "-" else open(args.result)) as f:
        lines = f.read().splitlines()
    with open(golden_path) as f:
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
              % (len(golden["metrics"]), os.path.relpath(golden_path)))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())

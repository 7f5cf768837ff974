"""Run the benchmark over several seeds and report each end-to-end metric's spread.

    python3 perfbench/spread.py --workload joint_l8_m8

For each metric it prints the median over the seeds and the distance
between the first and third quartiles as a share of that median, next to
the metric's bound from BENCHMARK.json.  A spread above a third of the
bound is marked, since two sets of runs may then disagree by more than the
bound.  Seeds 1-10 run one after another.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

import checks

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    args = parser.parse_args(argv)
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)

    results = []
    for seed in SEEDS:
        proc = subprocess.run(
            [sys.executable, os.path.join(HERE, "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", str(bench["run_seconds"]), "--trace", "0"],
            cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
        line = json.loads(proc.stdout.strip().splitlines()[-1]) if proc.stdout.strip() else {}
        results.append({"seed": seed, "exit": proc.returncode, "result": line})
        print(f"seed {seed}: exit {proc.returncode}", file=sys.stderr)

    ok = all(r["exit"] == 0 for r in results)
    print(f"{'metric':18s} {'median':>12s} {'spread':>8s} {'bound':>6s}")
    for spec in bench["end_to_end"]:
        values = [r["result"]["metrics"][spec["name"]]["value"]
                  for r in results if r["result"]]
        if len(values) < 2:
            continue
        spread = checks.quartile_spread(values)
        mark = "" if spread < spec["bound"] / 3 else "  above a third of the bound"
        print(f"{spec['name']:18s} {statistics.median(values):12.6g} {spread:8.4f} "
              f"{spec['bound']:6.3f}{mark}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())

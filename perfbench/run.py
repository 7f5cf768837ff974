"""gpris benchmark: one workload, end-to-end metrics or a traced per-layer run.

    python3 perfbench/run.py --workload joint_l8_m8 --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  The command runs the workload in one
worker (see worker.py) with BLAS threads capped at the number of usable
cores, and samples set-up time in SETUP_PROBES short-lived workers, half
before it and half after it, so that drift of the machine during the run
shows in the median rather than in one sample.
It prints a report (environment, result digest, coverage flags, every
metric) and, as the last line, one JSON object with the keys correct,
attempted, failed and metrics.  --trace 0 reports the end_to_end metrics
of BENCHMARK.json, --trace 1 its per_layer metrics.  The exit code is 0
only when every output check passed.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

import checks
from worker import WORKLOADS

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SETUP_PROBES = 6
TIME_LIMIT_S = 170.0


class WorkerError(RuntimeError):
    pass


def git_commit(root: str) -> str:
    """HEAD of the checkout, read from .git without running git."""
    git = os.path.join(root, ".git")
    try:
        with open(os.path.join(git, "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        loose = os.path.join(git, ref)
        if os.path.isfile(loose):
            with open(loose, encoding="utf-8") as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs"), encoding="utf-8") as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def worker_env() -> dict:
    env = dict(os.environ)
    threads = str(len(os.sched_getaffinity(0)))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = threads
    env["PYTHONPATH"] = os.path.join(ROOT, "src")
    return env


def run_worker(args: list[str], env: dict, deadline: float) -> dict:
    """Run worker.py to completion; its set-up time is spawn to ready."""
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, os.path.join(HERE, "worker.py"), *args],
                            stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True)
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise WorkerError("worker ran past the time limit") from None
    if proc.returncode != 0 or not out.strip():
        raise WorkerError(f"worker exited with code {proc.returncode}")
    report = json.loads(out.strip().splitlines()[-1])
    report["setup_s"] = report["ready_at"] - spawned
    return report


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")
    if not os.path.isfile(os.path.join(ROOT, "src", "gpris", "__init__.py")):
        print(f"perfbench: no gpris sources under {ROOT}/src", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)["per_layer" if args.trace else "end_to_end"]

    env = worker_env()
    deadline = time.monotonic() + TIME_LIMIT_S
    try:
        setups = [run_worker(["--setup-only"], env, deadline)
                  for _ in range(SETUP_PROBES // 2)]
        result = run_worker(["--workload", args.workload, "--seed", str(args.seed),
                             "--seconds", str(args.seconds),
                             "--trace", str(args.trace)], env, deadline)
        setups += [run_worker(["--setup-only"], env, deadline)
                   for _ in range(SETUP_PROBES - SETUP_PROBES // 2)]
    except (WorkerError, OSError, ValueError, KeyError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    setups.append(result)

    metrics = {name: tuple(pair) for name, pair in result["metrics"].items()}
    for name, key in (("setup_s", "setup_s"), ("setup.import_s", "import_s"),
                      ("setup.warmup_s", "warmup_s")):
        metrics[name] = (statistics.median(r[key] for r in setups), "s")
    try:
        selected = checks.select_metrics(metrics, declared)
    except ValueError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    correct = result["failed"] == 0 and not result["problems"]
    report = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "seconds": args.seconds, "commit": git_commit(ROOT),
              "environment": result["environment"],
              "instances": result["instances"], "instance_s": result.get("instance_s"),
              "problems": result["problems"],
              "digest": result.get("digest"), "coverage_flags": result.get("flags"),
              "setup_samples_s": [r["setup_s"] for r in setups],
              "metrics": {name: {"value": v, "unit": u}
                          for name, (v, u) in sorted(metrics.items())}}
    print(json.dumps(report, indent=1))
    print(json.dumps(checks.result_line(correct, result["attempted"],
                                        result["failed"], selected)))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

"""One benchmark worker process: set up gpris, run a workload, print one JSON line.

run.py starts it with PYTHONPATH pointing at the checkout's src/ and BLAS
threads capped.  Only stdlib modules are imported at module level, so the
set-up time includes loading numpy.  With --setup-only the worker exits
once set-up is done, which lets run.py sample set-up time several times.

Every workload is a closed loop: one instance finishes before the next one
starts.  Instance i of a run draws its inputs from a stream keyed by
(--seed, i), so the same seed gives the same inputs.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from dataclasses import dataclass, field
from types import SimpleNamespace

import checks
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

PAPER_SIZE = {"n_bs_antennas": 16, "n_users": 4, "tx_power_dbm": 20.0}
L2_M64 = {**PAPER_SIZE, "n_ris": 2, "ris_elems_y": 8, "ris_elems_z": 8}
L8_M8 = {**PAPER_SIZE, "n_ris": 8, "ris_elems_y": 4, "ris_elems_z": 2}
WARM_UP = {"n_bs_antennas": 4, "n_users": 2, "n_ris": 2,
           "ris_elems_y": 2, "ris_elems_z": 2}
SWEEP_POWERS_DBM = (0.0, 10.0, 20.0, 30.0)
SWEEP_SEEDS = 4           # channel draws per power point in one sweep
SWEEP_SCHEMES = ("gpi_random", "rzf_random")


def _count_precoder(counters, result):
    counters["iters"] += result[1]


def _count_ris(counters, result):
    counters["iters"] += result.iterations
    counters["loop_s"] += result.loop_seconds


def _count_joint(counters, result):
    counters["mu_points"] += len(result.per_mu_final) + len(result.errors)
    counters["mu_failed"] += len(result.errors)
    counters["alternations"] += sum(result.iterations.values())
    counters["mu_converged"] += sum(result.converged.values())
    counters["mu_finished"] += len(result.converged)


# (layer, counter); a layer is "<gpris module>.<public function>"
LAYERS = (
    ("channel.synthesize_channels", None),
    ("channel.estimate_channels", None),
    ("joint.initial_pair", None),
    ("gpi_precoder.build_precoder_quadratics", None),
    ("gpi_precoder.run_gpi_precoder", _count_precoder),
    ("gpi_ris.build_ris_quadratics", None),
    ("gpi_ris.run_gpi_ris", _count_ris),
    ("metrics.lower_bound_sum_se", None),
    ("metrics.exact_sum_se", None),
    ("joint.run_joint", _count_joint),
    ("harness.run_experiment", None),
    ("harness.write_results", None),
)
# joint.py and harness.py import these functions by name, so the wrappers
# must be bound there for their calls to be traced
CALLERS = ("joint", "harness")

_COMMON = ("channel.synthesize_channels", "channel.estimate_channels",
           "joint.initial_pair", "gpi_precoder.build_precoder_quadratics",
           "gpi_precoder.run_gpi_precoder", "metrics.lower_bound_sum_se",
           "metrics.exact_sum_se")
JOINT_LAYERS = _COMMON + ("gpi_ris.build_ris_quadratics", "gpi_ris.run_gpi_ris",
                          "joint.run_joint")
SWEEP_LAYERS = _COMMON + ("harness.run_experiment", "harness.write_results")


@dataclass(frozen=True)
class Workload:
    name: str
    kind: str                # "joint" or "sweep"
    config: dict             # scenario config of every instance
    quality_instances: int   # every untraced run completes these; digest and SE cover them
    trace_instances: int     # instances the traced run times untraced, then traced
    root: str                # top program call; its self time is the untraced share
    layers: tuple            # layers the workload must call; it must call no other


WORKLOADS = {w.name: w for w in (
    Workload("joint_l2_m64", "joint", L2_M64, 1, 1, "joint.run_joint", JOINT_LAYERS),
    Workload("joint_l8_m8", "joint", L8_M8, 30, 12, "joint.run_joint", JOINT_LAYERS),
    Workload("sweep_no_ris", "sweep", L2_M64, 25, 80, "harness.run_experiment",
             SWEEP_LAYERS),
)}


@dataclass
class Outcome:
    seconds: float
    rows: int
    failed: int
    lb_se: list = field(default_factory=list)
    exact_se: list = field(default_factory=list)
    digest: bytes = b""
    problems: list = field(default_factory=list)


def set_up():
    """Import gpris from the checkout and run one tiny run_joint."""
    t0 = time.perf_counter()
    import numpy as np
    import scipy

    import gpris
    from gpris import channel, gpi_precoder, gpi_ris, harness, joint, metrics
    import_s = time.perf_counter() - t0
    src = os.path.join(ROOT, "src", "")
    if not os.path.realpath(gpris.__file__).startswith(os.path.realpath(src)):
        raise RuntimeError(f"gpris imported from {gpris.__file__}, not from {src}")

    t1 = time.perf_counter()
    scenario = gpris.scenario_from_dict(WARM_UP)
    rng = np.random.default_rng(0)
    truth = gpris.synthesize_channels(scenario, rng)
    est = gpris.estimate_channels(truth, scenario, rng)
    gpris.run_joint(est, scenario.config.noise_over_power,
                    gpris.LineSearchPlan(0.0, 1.0, 2), gpris.AlgorithmSettings(), rng)
    warmup_s = time.perf_counter() - t1

    modules = {"channel": channel, "gpi_precoder": gpi_precoder,
               "gpi_ris": gpi_ris, "harness": harness, "joint": joint,
               "metrics": metrics}
    originals = {name: getattr(modules[name.split(".")[0]], name.split(".")[1], None)
                 for name, _ in LAYERS}
    return SimpleNamespace(np=np, scipy=scipy, gpris=gpris, modules=modules,
                           originals=originals, import_s=import_s,
                           warmup_s=warmup_s)


class JointRunner:
    """run_joint on fresh instances, plus the exact SE on the true channels."""

    def __init__(self, env, workload: Workload, seed: int):
        g = env.gpris
        self.np = env.np
        self.scenario = g.scenario_from_dict(workload.config)
        self.nop = self.scenario.config.noise_over_power
        self.plan = g.LineSearchPlan(0.0, 100.0, 30)
        self.settings = g.AlgorithmSettings()
        self.seed = seed

    def run(self, index: int, fns: dict) -> Outcome:
        rng = self.np.random.default_rng([self.seed, index])
        start = time.perf_counter()
        try:
            truth = fns["channel.synthesize_channels"](self.scenario, rng)
            est = fns["channel.estimate_channels"](truth, self.scenario, rng)
            res = fns["joint.run_joint"](est, self.nop, self.plan, self.settings, rng)
            exact = fns["metrics.exact_sum_se"](truth.cascaded, res.best_precoder,
                                                res.best_phases, self.nop)
        except Exception:  # noqa: BLE001 - a failed instance is counted, not fatal
            traceback.print_exc()
            return Outcome(time.perf_counter() - start, 1, 1,
                           problems=[f"instance {index} raised"])
        seconds = time.perf_counter() - start
        problems = checks.joint_problems(res, exact)
        return Outcome(seconds, 1, int(bool(problems)), [res.objective], [exact],
                       checks.pair_bytes(res), problems)


class SweepRunner:
    """run_experiment + write_results on a power sweep with no RIS stage."""

    def __init__(self, env, workload: Workload, seed: int, out_dir: str):
        self.env = env
        self.base_config = workload.config
        self.seed = seed
        self.out_dir = out_dir
        self.expected_rows = len(SWEEP_POWERS_DBM) * SWEEP_SEEDS * len(SWEEP_SCHEMES)

    def run(self, index: int, fns: dict) -> Outcome:
        g = self.env.gpris
        stem = os.path.join(self.out_dir, f"sweep{index}")
        spec = g.ExperimentSpec(kind="power_sweep", sweep_values=SWEEP_POWERS_DBM,
                                n_seeds=SWEEP_SEEDS, base_config=self.base_config,
                                output_path=stem, schemes=SWEEP_SCHEMES)
        base_seed = int(self.env.np.random.SeedSequence(
            [self.seed, index]).generate_state(1)[0])
        start = time.perf_counter()
        try:
            rows = fns["harness.run_experiment"](spec, base_seed=base_seed)
            paths = fns["harness.write_results"](rows, stem)
        except Exception:  # noqa: BLE001 - a failed sweep is counted, not fatal
            traceback.print_exc()
            return Outcome(time.perf_counter() - start, self.expected_rows,
                           self.expected_rows, problems=[f"sweep {index} raised"])
        seconds = time.perf_counter() - start
        lines = []
        for path in paths:
            with open(path, encoding="utf-8") as fh:
                lines.append(sum(1 for _ in fh))
            os.remove(path)
        problems = checks.sweep_problems(rows, self.expected_rows, *lines)
        failed = self.expected_rows if problems else 0
        gpi = [r for r in rows if r.scheme == "gpi_random"]
        return Outcome(seconds, len(rows), failed, [r.lb_sum_se for r in gpi],
                       [r.exact_sum_se for r in gpi], checks.row_bytes(rows), problems)


def _summary(outcomes) -> dict:
    return {"attempted": sum(o.rows for o in outcomes),
            "failed": sum(o.failed for o in outcomes),
            "problems": [p for o in outcomes for p in o.problems][:20]}


def _peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(runner, workload: Workload, seconds: float, env) -> dict:
    """Untraced closed loop for `seconds`, never fewer than the quality prefix."""
    outcomes = []
    start = time.perf_counter()
    deadline = start + seconds
    while len(outcomes) < workload.quality_instances or time.perf_counter() < deadline:
        outcomes.append(runner.run(len(outcomes), env.originals))
    wall = time.perf_counter() - start
    quality = outcomes[:workload.quality_instances]
    lb = [v for o in quality for v in o.lb_se]
    exact = [v for o in quality for v in o.exact_se]
    summary = _summary(outcomes)
    metrics = {
        "instances_per_s": (len(outcomes) / wall, "1/s"),
        "instance_s_p50": (statistics.median(o.seconds for o in outcomes), "s"),
        "rows_per_s": (summary["attempted"] / wall, "1/s"),
        "lb_se_mean": (statistics.fmean(lb) if lb else 0.0, "bit/s/Hz"),
        "exact_se_mean": (statistics.fmean(exact) if exact else 0.0, "bit/s/Hz"),
        "fail_share": (summary["failed"] / summary["attempted"], "fraction"),
        "peak_rss_mb": (_peak_rss_mb(), "MB"),
    }
    summary["digest"] = {
        "instances": len(quality),
        "lb_se_mean": repr(metrics["lb_se_mean"][0]),
        "exact_se_mean": repr(metrics["exact_se_mean"][0]),
        "sha256": checks.digest(o.digest for o in quality),
    }
    summary["instances"] = len(outcomes)
    summary["instance_s"] = [round(o.seconds, 4) for o in outcomes]
    summary["metrics"] = metrics
    return summary


def trace(runner, workload: Workload, seconds: float, env) -> dict:
    """Run each instance of a fixed set untraced, then again traced.

    Interleaving the two runs of one instance keeps warm-up and machine
    drift out of the overhead estimate.
    """
    tracer = Tracer()
    callers = [env.modules[name] for name in CALLERS]
    fns = {name: tracer.register(name, env.modules[name.split(".")[0]], callers, count)
           for name, count in LAYERS}
    plain, traced = [], []
    deadline = time.perf_counter() + seconds
    while len(plain) < workload.trace_instances and (
            not plain or time.perf_counter() < deadline):
        plain.append(runner.run(len(plain), env.originals))
        with tracer.active():
            traced.append(runner.run(len(traced), fns))
    flags = (tracer.flags + tracer.uncalled(workload.layers)
             + tracer.unexpected(workload.layers))
    for flag in flags:
        print(f"perfbench coverage: {flag}", file=sys.stderr)

    plain_s = sum(o.seconds for o in plain)
    traced_s = sum(o.seconds for o in traced)
    metrics = {}
    for name, _ in LAYERS:
        stats = tracer.layer(name)
        metrics[f"{name}.calls"] = (stats.calls, "count")
        metrics[f"{name}.self_s"] = (stats.self_s, "s")
        metrics[f"{name}.share"] = (stats.self_s / traced_s, "fraction")
    pre = tracer.layer("gpi_precoder.run_gpi_precoder").counters
    ris = tracer.layer("gpi_ris.run_gpi_ris").counters
    jnt = tracer.layer("joint.run_joint").counters
    root = tracer.layer(workload.root)
    summary = _summary(plain + traced)
    metrics.update({
        "gpi_precoder.run_gpi_precoder.iters": (pre["iters"], "count"),
        "gpi_ris.run_gpi_ris.iters": (ris["iters"], "count"),
        "gpi_ris.run_gpi_ris.loop_s": (ris["loop_s"], "s"),
        "gpi_ris.run_gpi_ris.s_per_iter": (
            ris["loop_s"] / ris["iters"] if ris["iters"] else 0.0, "s"),
        "joint.run_joint.mu_points": (jnt["mu_points"], "count"),
        "joint.run_joint.alternations": (jnt["alternations"], "count"),
        "joint.run_joint.converged_share": (
            jnt["mu_converged"] / jnt["mu_finished"] if jnt["mu_finished"] else 0.0,
            "fraction"),
        "joint.run_joint.mu_failed": (jnt["mu_failed"], "count"),
        "trace.untraced_share": (
            root.self_s / root.total_s if root.total_s else 1.0, "fraction"),
        "trace.overhead_share": ((traced_s - plain_s) / plain_s, "fraction"),
        "trace.instances": (len(traced), "count"),
        "trace.coverage_flags": (len(flags), "count"),
        "fail_share": (summary["failed"] / summary["attempted"], "fraction"),
    })
    summary["flags"] = flags
    summary["instances"] = len(traced)
    summary["metrics"] = metrics
    return summary


def environment(env) -> dict:
    try:
        blas = env.np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        vendor = f"{blas['name']} {blas['version']}"
    except (KeyError, TypeError, ValueError):
        vendor = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": env.np.__version__,
        "scipy": env.scipy.__version__,
        "blas": vendor,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "ris_backend": "numba" if env.gpris._kernel.HAVE_NUMBA else "numpy",
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    env = set_up()
    report = {"ready_at": time.monotonic(), "import_s": env.import_s,
              "warmup_s": env.warmup_s}
    if not args.setup_only:
        workload = WORKLOADS[args.workload]
        # inside the checkout, so the benchmark writes nowhere else
        out_dir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
        try:
            if workload.kind == "joint":
                runner = JointRunner(env, workload, args.seed)
            else:
                runner = SweepRunner(env, workload, args.seed, out_dir)
            step = trace if args.trace else measure
            report.update(step(runner, workload, args.seconds, env))
        finally:
            shutil.rmtree(out_dir, ignore_errors=True)
        report["environment"] = environment(env)
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Experiment harness: seeded sweeps, benchmarks, CSV/JSON-lines output."""

from __future__ import annotations

import csv
import io
import json
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from . import _kernel
from .channel import estimate_channels, synthesize_channels
from .gpi_precoder import GpiSettings, build_precoder_quadratics, run_gpi_precoder
from .gpi_ris import build_ris_quadratics, run_gpi_ris
from .joint import (_STAGE_ERRORS, AlgorithmSettings, AllMuPointsFailed,
                    LineSearchPlan, compute_r_sigma, initial_pair, run_joint)
from .metrics import Precoder, exact_sum_se, lower_bound_sum_se
from .scenario import (PathlossModel, Scenario, check_count, default_geometry,
                       scenario_from_dict)

# each kind and the id that keys its RNG streams, pinned so that removing a
# kind moves no other kind's rows (4 belonged to the removed "convergence")
EXPERIMENT_KINDS = {"power_sweep": 0, "ris_elems_sweep": 1,
                    "antennas_sweep": 2, "csit_sweep": 3, "mu_study": 5,
                    "scalability": 6, "bench": 7}
SCHEMES = ("gpi_pris", "gpi_random", "rzf_random")
# kinds whose sweep values are counts (M, N or L); 4.0 reads as 4
_COUNT_SWEEPS = ("ris_elems_sweep", "antennas_sweep", "scalability", "bench")


@dataclass(frozen=True)
class ExperimentSpec:
    kind: str
    sweep_values: tuple
    n_seeds: int
    base_config: dict = field(default_factory=dict)
    output_path: str = "results"
    schemes: tuple[str, ...] = SCHEMES
    mu_points: int = 30
    mu_min: float = 0.0
    mu_max: float = 100.0
    bench_repetitions: int = 5
    bench_iters: int = 30

    def __post_init__(self):
        if self.kind not in EXPERIMENT_KINDS:
            raise ValueError(f"unknown experiment kind {self.kind!r}")
        if len(self.sweep_values) == 0:
            raise ValueError("sweep_values must be nonempty")
        for name in ("n_seeds", "bench_repetitions", "bench_iters"):
            check_count(name, getattr(self, name))
        unknown = set(self.schemes) - set(SCHEMES)
        if unknown:
            raise ValueError(f"unknown schemes: {sorted(unknown)}")
        self.plan  # a malformed mu grid fails here, not in every gpi_pris row
        # as do a bad base_config and a sweep value, not in the middle of a run
        base = scenario_from_dict(dict(self.base_config))
        for value in self.sweep_values:
            x = float(value)
            if not math.isfinite(x):
                raise ValueError(f"sweep_values must be finite, got {value!r}")
            if self.kind in _COUNT_SWEEPS and not (x.is_integer() and x >= 1):
                raise ValueError(f"{self.kind} sweep_values must be positive "
                                 f"integers, got {value!r}")
            if self.kind == "mu_study" and x < 0:
                raise ValueError(f"mu_study sweep_values must be >= 0, "
                                 f"got {value!r}")
            _apply_sweep(base, self.kind, value)

    @property
    def plan(self) -> LineSearchPlan:
        return LineSearchPlan(self.mu_min, self.mu_max, self.mu_points)


def spec_from_dict(doc: dict) -> ExperimentSpec:
    allowed = {f.name for f in fields(ExperimentSpec)}
    unknown = set(doc) - allowed
    if unknown:
        raise ValueError(f"unknown spec keys: {sorted(unknown)}")
    doc = dict(doc)
    for key in ("sweep_values", "schemes"):
        if key in doc:
            doc[key] = tuple(doc[key])
    return ExperimentSpec(**doc)


def load_spec(path: str) -> ExperimentSpec:
    with open(path, "r", encoding="utf-8") as fh:
        return spec_from_dict(json.load(fh))


@dataclass
class ResultRow:
    experiment: str
    seed: int
    sweep_value: float
    scheme: str
    lb_sum_se: float = math.nan
    exact_sum_se: float = math.nan
    mc_se: float = math.nan
    nmse: float = math.nan
    mu: float = math.nan
    iterations: int = 0
    precoder_s: float = 0.0
    ris_s: float = 0.0
    error: str = ""

    def csv_line(self) -> str:
        """One CSV line without its terminator, the fields in CSV_HEADER's
        order and floats as their repr; a field holding a comma, a quote or
        a line break (an error message, say) is quoted."""
        buf = io.StringIO()
        csv.writer(buf, lineterminator="\n").writerow([
            repr(v) if isinstance(v, float) else v
            for v in (getattr(self, f.name) for f in fields(self))])
        return buf.getvalue()[:-1]


CSV_HEADER = ",".join(f.name for f in fields(ResultRow))


def _square_factor(m: int) -> tuple[int, int]:
    """Split M into (m_y, m_z) as close to square as possible."""
    mz = int(math.isqrt(m))
    while m % mz != 0:
        mz -= 1
    return m // mz, mz


def _apply_sweep(base: Scenario, kind: str, value) -> Scenario:
    cfg = base.config
    if kind == "power_sweep":
        cfg = replace(cfg, tx_power_dbm=float(value))
    elif kind == "ris_elems_sweep":
        my, mz = _square_factor(int(value))
        cfg = replace(cfg, ris_elems_y=my, ris_elems_z=mz)
    elif kind == "antennas_sweep":
        cfg = replace(cfg, n_bs_antennas=int(value))
    elif kind == "csit_sweep":
        cfg = replace(cfg, ul_train_power_dbm=float(value))
    elif kind in ("scalability", "bench"):
        m_tot = cfg.m_ris * cfg.n_ris
        l = int(value)
        if m_tot % l != 0:
            raise ValueError(f"M_tot={m_tot} not divisible by L={l}")
        my, mz = _square_factor(m_tot // l)
        cfg = replace(cfg, n_ris=l, ris_elems_y=my, ris_elems_z=mz)
        return Scenario(config=cfg, geometry=default_geometry(l),
                        pathloss=PathlossModel(enabled=False))
    elif kind == "mu_study":
        return base  # mu is the sweep variable itself
    else:
        raise ValueError(f"kind {kind!r} has no sweep rule")
    return Scenario(config=cfg, geometry=base.geometry, pathloss=base.pathloss)


def _run_point(spec: ExperimentSpec, scenario: Scenario, value, seed: int,
               settings: AlgorithmSettings) -> list[ResultRow]:
    rows = []
    rng = np.random.default_rng([scenario.config.rng_seed,
                                 EXPERIMENT_KINDS[spec.kind],
                                 int(abs(float(value) * 1024)), seed])
    truth = synthesize_channels(scenario, rng)
    est = estimate_channels(truth, scenario, rng)
    nop = scenario.config.noise_over_power
    n, k, _, _ = est.dims
    f0, phi0 = initial_pair(est, nop, rng)

    def row(scheme, **fields) -> ResultRow:
        return ResultRow(experiment=spec.kind, seed=seed,
                         sweep_value=float(value), scheme=scheme, **fields)

    baselines = []  # (scheme, precoder, iterations), all against phi0
    for scheme in spec.schemes:
        try:
            if scheme == "rzf_random":
                baselines.append((scheme, f0, 0))
            elif scheme == "gpi_random":
                quad = build_precoder_quadratics(est, phi0, nop)
                f_star, iters, _ = run_gpi_precoder(quad, f0.stacked,
                                                    settings.precoder)
                baselines.append((scheme, Precoder.from_stacked(f_star, n, k),
                                  iters))
            elif scheme == "gpi_pris":
                plan = (LineSearchPlan(float(value), float(value), 1)
                        if spec.kind == "mu_study" else spec.plan)
                res = run_joint(est, nop, plan, settings, rng, init=(f0, phi0))
                rows.append(row(
                    scheme, mu=res.best_mu, nmse=res.nmse,
                    lb_sum_se=lower_bound_sum_se(est, res.best_precoder,
                                                 res.best_phases, nop),
                    exact_sum_se=exact_sum_se(truth.cascaded, res.best_precoder,
                                              res.best_phases, nop),
                    iterations=res.iterations.get(res.best_mu, 0),
                    precoder_s=res.timing["precoder"], ris_s=res.timing["ris"]))
        except (*_STAGE_ERRORS, AllMuPointsFailed) as exc:
            # what the stages report is recorded; a bug propagates
            rows.append(row(scheme, error=f"{type(exc).__name__}: {exc}"))
    if baselines:
        # the baselines' SEs as the lanes of one call each
        lanes = Precoder(np.stack([f.matrix for _, f, _ in baselines]))
        lb = lower_bound_sum_se(est, lanes, phi0, nop).tolist()
        exact = exact_sum_se(truth.cascaded, lanes, phi0, nop).tolist()
        for (scheme, _, iters), lb_p, exact_p in zip(baselines, lb, exact):
            rows.append(row(scheme, lb_sum_se=lb_p, exact_sum_se=exact_p,
                            iterations=iters))
    return rows


def run_experiment(spec: ExperimentSpec, settings: AlgorithmSettings | None = None,
                   base_seed: int | None = None) -> list[ResultRow]:
    """Run every (sweep value, seed) point; deterministic row order."""
    if spec.kind == "bench":
        raise ValueError("bench specs go through bench_from_spec")
    settings = settings or AlgorithmSettings()
    base = scenario_from_dict(dict(spec.base_config))
    if base_seed is not None:
        base = Scenario(config=replace(base.config, rng_seed=base_seed),
                        geometry=base.geometry, pathloss=base.pathloss)
    rows = []
    for value in spec.sweep_values:
        scenario = _apply_sweep(base, spec.kind, value)
        for seed in range(spec.n_seeds):
            rows.extend(_run_point(spec, scenario, value, seed, settings))
    rows.sort(key=lambda r: (r.sweep_value, r.seed, SCHEMES.index(r.scheme)))
    return rows


def write_results(rows: list[ResultRow], output_path: str) -> tuple[str, str]:
    """Append-only CSV with fixed header plus a JSON-lines mirror."""
    csv_path = output_path + ".csv"
    jsonl_path = output_path + ".jsonl"
    with open(csv_path, "a", encoding="utf-8") as fh:
        if fh.tell() == 0:
            fh.write(CSV_HEADER + "\n")
        for row in rows:
            fh.write(row.csv_line() + "\n")
    with open(jsonl_path, "a", encoding="utf-8") as fh:
        for row in rows:
            fh.write(json.dumps(vars(row)) + "\n")  # the fields in order
    return csv_path, jsonl_path


@dataclass
class BenchRow:
    n_ris: int
    elems_per_ris: int
    per_iter_seconds: float
    repetitions: int
    low_confidence: bool


@dataclass
class BenchResult:
    rows: list[BenchRow]
    loglog_slope: float
    backend: str             # RIS loop that ran: "c" or "numpy"


def bench_ris_stage(scenarios: list[Scenario], repetitions: int = 5,
                    iters_per_run: int = 30) -> BenchResult:
    """Median wall time per RIS-stage iteration for each config.

    It times one lane per call, so the compiled loop runs a group of one
    (G = 1; see ``_kernel.ris_group``), not the lane groups of ``run_joint``;
    its rows of L columns are padded to a multiple of 8 (at L = 2, 8).
    All scenarios must share the same total element count L*M.  The timer
    runs inside the compiled call and covers its intake (the copy of the
    blocks into the loop's split layout) and the fixed-point loop; channel
    synthesis, quadratic assembly and the call's Python overhead are
    excluded.
    """
    m_tot = {s.config.m_ris * s.config.n_ris for s in scenarios}
    if len(m_tot) != 1:
        raise ValueError(f"configs disagree on total RIS elements: {m_tot}")
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    _kernel.warm_up()
    rows = []
    for scenario in scenarios:
        cfg = scenario.config
        rng = np.random.default_rng([cfg.rng_seed, cfg.n_ris, 7])
        truth = synthesize_channels(scenario, rng)
        est = estimate_channels(truth, scenario, rng)
        nop = cfg.noise_over_power
        f0, phi0 = initial_pair(est, nop, rng)
        quad = build_ris_quadratics(est, f0, nop)
        # mu=0: the unit-modulus penalty costs O(M_tot) per iteration
        # independent of L, which at small M_tot masks the block-solve
        # scaling this benchmark measures; the matrix pipeline is identical
        r_sigma = compute_r_sigma(est, f0, phi0, nop)
        settings = GpiSettings(tol=1e-30, max_iters=iters_per_run)
        times = []
        for _ in range(repetitions):
            res = run_gpi_ris(quad, 0.0, r_sigma, phi0.normalized, settings)
            times.append(res.loop_seconds / res.iterations)
        rows.append(BenchRow(n_ris=cfg.n_ris, elems_per_ris=cfg.m_ris,
                             per_iter_seconds=float(np.median(times)),
                             repetitions=repetitions,
                             low_confidence=repetitions < 2))
    ls = np.log([r.n_ris for r in rows])
    ts = np.log([r.per_iter_seconds for r in rows])
    slope = float(np.polyfit(ls, ts, 1)[0]) if len(rows) > 1 else math.nan
    return BenchResult(rows=rows, loglog_slope=slope,
                       backend="c" if _kernel.available() else "numpy")


def bench_from_spec(spec: ExperimentSpec) -> BenchResult:
    """Bench entrypoint: sweep_values are RIS counts at fixed M_tot."""
    base = scenario_from_dict(dict(spec.base_config))
    scenarios = [_apply_sweep(base, "scalability", l) for l in spec.sweep_values]
    return bench_ris_stage(scenarios, spec.bench_repetitions, spec.bench_iters)

"""Alternating precoder / phase-shift optimization with a line search over mu.

For each regularization weight on the grid, the precoder stage and the RIS
stage alternate from a shared initial pair until the relative change of the
exact lower-bound objective (evaluated with projected, unit-modulus phases)
drops below the tolerance.  The best iterate per mu is retained and the grid
argmax is returned.

The grid points run as lanes of one batch: each round takes every lane
still running through the precoder stage, the RIS stage and the objective
in one call each, with the lane axis leading every array.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field, replace

import numpy as np

from .baselines import random_phases, rzf_precoder, rzf_regularizer
from .channel import ChannelEstimate
from .gpi_precoder import GpiSettings, build_precoder_quadratics, run_gpi_precoder
from .gpi_ris import (RegularizerSettings, RisQuadratics, build_ris_quadratics,
                      default_tau, run_gpi_ris)
from .metrics import (PhaseShifts, Precoder, effective_channels,
                      lower_bound_sum_se, nmse_unit_modulus)


@dataclass(frozen=True)
class LineSearchPlan:
    """Linearly spaced mu grid."""

    mu_min: float = 0.0
    mu_max: float = 100.0
    n_points: int = 30

    def __post_init__(self):
        if self.mu_min < 0:
            raise ValueError("mu_min must be >= 0")
        if self.mu_min > self.mu_max:
            raise ValueError("mu_min must be <= mu_max")
        if self.n_points < 1:
            raise ValueError("n_points must be >= 1")

    @property
    def grid(self) -> np.ndarray:
        if self.n_points == 1:
            return np.array([self.mu_min])
        return np.linspace(self.mu_min, self.mu_max, self.n_points)


@dataclass(frozen=True)
class AlgorithmSettings:
    """Tolerance / iteration caps of all three loops plus smoothing knobs."""

    eps1: float = 0.01
    eps2: float = 0.01
    eps3: float = 0.01
    t1_max: int = 20
    t2_max: int = 20
    t3_max: int = 20
    alpha1: float = 2.0
    alpha2: float = 2.0

    def __post_init__(self):
        if self.t3_max < 1:
            raise ValueError("t3_max must be >= 1")

    @property
    def precoder(self) -> GpiSettings:
        return GpiSettings(tol=self.eps1, max_iters=self.t1_max)

    @property
    def ris(self) -> GpiSettings:
        return GpiSettings(tol=self.eps2, max_iters=self.t2_max)


@dataclass
class JointResult:
    best_precoder: Precoder
    best_phases: PhaseShifts            # projected
    best_w: np.ndarray                  # relaxed RIS vector behind best_phases
    best_mu: float
    objective: float                    # lower-bound sum SE of the best pair
    per_mu_final: dict[float, float]    # final objective recorded per mu point
    objective_trace: dict[float, list[float]]
    iterations: dict[float, int]        # inner iterations used per mu point
    converged: dict[float, bool]        # eps3 reached before the cap
    timing: dict[str, float] = field(default_factory=dict)
    errors: dict[float, str] = field(default_factory=dict)

    @property
    def nmse(self) -> float:
        return nmse_unit_modulus(self.best_w)


def compute_r_sigma(est: ChannelEstimate, precoder: Precoder,
                    phases: PhaseShifts, noise_over_p: float) -> float:
    """Sum-SE normalizer from an initial (precoder, phases) pair."""
    r_sigma = lower_bound_sum_se(est, precoder, phases, noise_over_p)
    if r_sigma <= 0:
        raise ValueError("degenerate normalizer: initial objective is not positive")
    return r_sigma


def initial_pair(est: ChannelEstimate, noise_over_p: float,
                 rng: np.random.Generator) -> tuple[Precoder, PhaseShifts]:
    """RZF precoder against random unit-modulus phases."""
    _, k, l, m = est.dims
    phases = random_phases(l, m, rng)
    h_hat = effective_channels(est.cascaded_est, phases)
    f0 = rzf_precoder(h_hat, rzf_regularizer(k, noise_over_p))
    return f0, phases


def run_joint(est: ChannelEstimate, noise_over_p: float, plan: LineSearchPlan,
              settings: AlgorithmSettings, rng: np.random.Generator,
              init: tuple[Precoder, PhaseShifts] | None = None) -> JointResult:
    """Full alternating optimization with the mu line search.

    Every grid point is a lane.  All lanes start from the shared initial
    pair and its objective, share the mu-independent first precoder stage,
    and then advance together one round at a time; a lane leaves once it
    meets eps3 or fails.  A failing round is rerun lane by lane, so only
    the lanes that fail on their own are recorded in ``errors``.
    """
    n, k, l, m = est.dims
    if init is None:
        init = initial_pair(est, noise_over_p, rng)
    f0, phi0 = init
    r_sigma = compute_r_sigma(est, f0, phi0, noise_over_p)
    grid = [float(mu) for mu in plan.grid]
    reg = RegularizerSettings(mu=np.array(grid), tau=default_tau(l, m),
                              r_sigma=r_sigma, alpha1=settings.alpha1,
                              alpha2=settings.alpha2)
    timing = {"precoder": 0.0, "ris": 0.0, "objective": 0.0}

    # the first precoder stage sees only (est, f0, phi0), so all mu points
    # share it; when it fails, every mu point fails with it
    try:
        first = _precoder_stage(est, noise_over_p, settings, f0, phi0, timing)
    except _STAGE_ERRORS as exc:
        errors = dict.fromkeys(grid, f"{type(exc).__name__}: {exc}")
        raise RuntimeError(f"every mu point failed: {errors}") from exc

    lanes = _Lanes(len(grid), f0, phi0, r_sigma)

    def advance(rnd, sel):
        """Round ``rnd`` of the lanes ``sel``: precoder stage (shared in the
        first round), RIS stage, objective."""
        if rnd == 0:
            stage = _lane_broadcast(first, sel.size)
        else:
            stage = _precoder_stage(est, noise_over_p, settings,
                                    Precoder.from_stacked(lanes.f[sel], n, k),
                                    PhaseShifts(lanes.phi[sel], projected=True),
                                    timing)
        out = _ris_and_objective(est, noise_over_p, settings,
                                 replace(reg, mu=reg.mu[sel]), lanes.w[sel],
                                 stage, timing)
        lanes.record(sel, *out, settings.eps3)

    for rnd in range(settings.t3_max):
        sel = lanes.active
        try:
            advance(rnd, sel)
        except _STAGE_ERRORS:
            # find the failing lanes by rerunning the round one lane at a time
            for p in sel:
                try:
                    advance(rnd, np.array([p]))
                except _STAGE_ERRORS as exc:
                    lanes.fail(p, f"{type(exc).__name__}: {exc}")
        if not lanes.active.size:
            break

    return lanes.result(grid, f0, phi0, n, k, timing)


def run_joint_fixed_mu(est: ChannelEstimate, noise_over_p: float, mu: float,
                       settings: AlgorithmSettings, rng: np.random.Generator,
                       init: tuple[Precoder, PhaseShifts] | None = None
                       ) -> JointResult:
    """Single-mu variant used for timing and regularization studies."""
    if mu < 0:
        raise ValueError("mu must be >= 0")
    plan = LineSearchPlan(mu_min=mu, mu_max=mu, n_points=1)
    return run_joint(est, noise_over_p, plan, settings, rng, init=init)


_STAGE_ERRORS = (np.linalg.LinAlgError, FloatingPointError, ValueError)


def _precoder_stage(est, noise_over_p, settings, precoder, phases, timing):
    """Precoder GPI against fixed phases, then the RIS quadratics it yields
    (per lane when the pair carries a lane axis)."""
    n, k, _, _ = est.dims
    t0 = time.perf_counter()
    f_star, _, _ = run_gpi_precoder(
        build_precoder_quadratics(est, phases, noise_over_p), precoder.stacked,
        settings.precoder)
    precoder = Precoder.from_stacked(f_star, n, k)
    t1 = time.perf_counter()
    ris_quad = build_ris_quadratics(est, precoder, noise_over_p)
    timing["precoder"] += t1 - t0
    timing["ris"] += time.perf_counter() - t1
    return precoder, ris_quad


def _lane_broadcast(stage, lanes):
    """The shared unbatched first stage as read-only views with a lane axis."""
    precoder, q = stage

    def rep(x):
        return np.broadcast_to(x, (lanes,) + x.shape)

    return (Precoder(rep(precoder.matrix)),
            RisQuadratics(rep(q.c_blocks), q.noise_over_p, rep(q.u_vecs)))


def _ris_and_objective(est, noise_over_p, settings, reg, w, stage, timing):
    """RIS GPI for the stage's lanes, then the objective of the new pair."""
    precoder, ris_quad = stage
    t1 = time.perf_counter()
    ris = run_gpi_ris(ris_quad, reg, w, settings.ris)
    t2 = time.perf_counter()
    obj = lower_bound_sum_se(est, precoder, ris.phases, noise_over_p)
    t3 = time.perf_counter()
    timing["ris"] += t2 - t1
    timing["objective"] += t3 - t2
    return precoder.stacked, ris.w, ris.phases.per_ris, obj


class _Lanes:
    """Per-mu state of the alternation: current pair, best pair, trace."""

    def __init__(self, p, f0, phi0, obj0):
        def rep(x):
            return np.repeat(x[None], p, axis=0)

        self.f, self.phi, self.w = rep(f0.stacked), rep(phi0.per_ris), rep(phi0.normalized)
        self.obj_prev = np.full(p, obj0)
        self.best_obj = np.full(p, obj0)
        self.best = [None] * p          # (f, phi, w) once a round beats obj0
        self.traces = [[] for _ in range(p)]
        self.iters = np.zeros(p, dtype=int)
        self.converged = np.zeros(p, dtype=bool)
        self.errors: dict[int, str] = {}
        self.active = np.arange(p)

    def record(self, sel, f, w, phi, obj, eps3):
        """Take one round of the lanes ``sel``; converged lanes leave."""
        self.f[sel], self.w[sel], self.phi[sel] = f, w, phi
        self.iters[sel] += 1
        for i, p in enumerate(sel):
            value = float(obj[i])
            self.traces[p].append(value)
            if value > self.best_obj[p]:
                self.best_obj[p] = value
                self.best[p] = (f[i], phi[i], w[i])
            prev = self.obj_prev[p]
            if prev > 0 and abs(value - prev) / prev <= eps3:
                self.converged[p] = True
            self.obj_prev[p] = value
        self.active = self.active[~self.converged[self.active]]

    def fail(self, p, message):
        self.errors[p] = message
        self.active = self.active[self.active != p]

    def result(self, grid, f0, phi0, n, k, timing) -> JointResult:
        per_mu_final, traces, iters, converged = {}, {}, {}, {}
        best = None
        for p, mu in enumerate(grid):
            if p in self.errors:
                continue
            per_mu_final[mu] = float(self.best_obj[p])
            traces[mu] = self.traces[p]
            iters[mu] = int(self.iters[p])
            converged[mu] = bool(self.converged[p])
            if best is None or self.best_obj[p] > self.best_obj[best]:
                best = p
        errors = {grid[p]: msg for p, msg in self.errors.items()}
        if best is None:
            raise RuntimeError(f"every mu point failed: {errors}")
        if self.best[best] is None:
            precoder, phases, w = f0, phi0, phi0.normalized
        else:
            f, phi, w = self.best[best]
            precoder = Precoder.from_stacked(f, n, k)
            phases = PhaseShifts(phi, projected=True)
        return JointResult(best_precoder=precoder, best_phases=phases, best_w=w,
                           best_mu=grid[best], objective=per_mu_final[grid[best]],
                           per_mu_final=per_mu_final, objective_trace=traces,
                           iterations=iters, converged=converged, timing=timing,
                           errors=errors)

"""Alternating precoder / phase-shift optimization with a line search over mu.

For each regularization weight on the grid, the precoder stage and the RIS
stage alternate from a shared initial pair until the relative change of the
exact lower-bound objective (evaluated with projected, unit-modulus phases)
drops below the tolerance.  The best iterate per mu is retained and the grid
argmax is returned.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from .baselines import random_phases, rzf_precoder, rzf_regularizer
from .channel import ChannelEstimate
from .gpi_precoder import GpiSettings, build_precoder_quadratics, run_gpi_precoder
from .gpi_ris import (RegularizerSettings, build_ris_quadratics, default_tau,
                      run_gpi_ris)
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
    """Full alternating optimization with the mu line search."""
    n, k, l, m = est.dims
    if init is None:
        init = initial_pair(est, noise_over_p, rng)
    f0, phi0 = init
    tau = default_tau(l, m)
    r_sigma = compute_r_sigma(est, f0, phi0, noise_over_p)

    per_mu_final: dict[float, float] = {}
    traces: dict[float, list[float]] = {}
    iter_counts: dict[float, int] = {}
    converged: dict[float, bool] = {}
    errors: dict[float, str] = {}
    best = None  # (objective, precoder, phases, w, mu)
    timing = {"precoder": 0.0, "ris": 0.0, "objective": 0.0}

    # the first precoder stage sees only (est, f0, phi0), so all mu points
    # share it; when it fails, every mu point fails with it
    try:
        first = _precoder_stage(est, noise_over_p, settings, f0, phi0, timing)
    except _STAGE_ERRORS as exc:
        errors = dict.fromkeys(map(float, plan.grid),
                               f"{type(exc).__name__}: {exc}")
        raise RuntimeError(f"every mu point failed: {errors}") from exc

    for mu in plan.grid:
        mu = float(mu)
        reg = RegularizerSettings(mu=mu, tau=tau, r_sigma=r_sigma,
                                  alpha1=settings.alpha1, alpha2=settings.alpha2)
        try:
            outcome = _alternate(est, noise_over_p, reg, settings, init, r_sigma,
                                 first, timing)
        except _STAGE_ERRORS as exc:
            errors[mu] = f"{type(exc).__name__}: {exc}"
            continue
        obj, precoder, phases, w, trace, iters, conv = outcome
        per_mu_final[mu] = obj
        traces[mu] = trace
        iter_counts[mu] = iters
        converged[mu] = conv
        if best is None or obj > best[0]:
            best = (obj, precoder, phases, w, mu)

    if best is None:
        raise RuntimeError(f"every mu point failed: {errors}")
    obj, precoder, phases, w, mu = best
    return JointResult(best_precoder=precoder, best_phases=phases, best_w=w,
                       best_mu=mu, objective=obj, per_mu_final=per_mu_final,
                       objective_trace=traces, iterations=iter_counts,
                       converged=converged, timing=timing, errors=errors)


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
    """Precoder GPI against fixed phases, then the RIS quadratics it yields."""
    n, k, _, _ = est.dims
    t0 = time.perf_counter()
    quad = build_precoder_quadratics(est, phases, noise_over_p)
    f_star, _, _ = run_gpi_precoder(quad, precoder.stacked, settings.precoder)
    precoder = Precoder.from_stacked(f_star, n, k)
    t1 = time.perf_counter()
    ris_quad = build_ris_quadratics(est, precoder, noise_over_p)
    timing["precoder"] += t1 - t0
    timing["ris"] += time.perf_counter() - t1
    return precoder, ris_quad


def _alternate(est, noise_over_p, reg, settings, init, obj_init, first, timing):
    """One inner alternation at a fixed mu from the shared initial pair, its
    objective ``obj_init`` and the shared first precoder stage ``first``."""
    precoder, phases = init
    w = phases.normalized
    obj_prev = obj_init
    trace: list[float] = []
    best = (obj_prev, precoder, phases, w)
    converged = False
    iters = 0
    precoder, ris_quad = first
    for _ in range(settings.t3_max):
        if iters:
            precoder, ris_quad = _precoder_stage(est, noise_over_p, settings,
                                                 precoder, phases, timing)
        iters += 1
        t1 = time.perf_counter()
        ris = run_gpi_ris(ris_quad, reg, w, settings.ris)
        phases, w = ris.phases, ris.w
        t2 = time.perf_counter()
        obj = lower_bound_sum_se(est, precoder, phases, noise_over_p)
        t3 = time.perf_counter()
        timing["ris"] += t2 - t1
        timing["objective"] += t3 - t2
        trace.append(obj)
        if obj > best[0]:
            best = (obj, precoder, phases, w)
        if obj_prev > 0 and abs(obj - obj_prev) / obj_prev <= settings.eps3:
            converged = True
            break
        obj_prev = obj
    obj, precoder, phases, w = best
    return obj, precoder, phases, w, trace, iters, converged

"""Alternating precoder / phase-shift optimization with a line search over mu.

For each regularization weight on the grid, the precoder stage and the RIS
stage alternate from a shared initial pair until the relative change of the
exact lower-bound objective (evaluated with projected, unit-modulus phases)
drops below the tolerance.  The best iterate per mu is retained and the grid
argmax is returned.

The grid points run as lanes of one batch: each round takes every lane
still running through the precoder stage, the RIS stage and the objective
in one call each, with the lane axis leading every array.  With isotropic
errors and a C compiler the whole round is one compiled call
(``_kernel.Rounds``); the numpy stages serve dense errors and hosts without
a compiler, and are the reference the compiled round is tested against.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import _kernel
from .baselines import random_phases, rzf_precoder, rzf_regularizer
from .channel import ChannelEstimate
from .gpi_precoder import (VANISHING, GpiSettings, build_precoder_quadratics,
                           run_gpi_precoder)
from .gpi_ris import (ALPHA1, ALPHA2, DBAR_NOT_PD, RisQuadratics,
                      build_ris_quadratics, run_gpi_ris)
from .metrics import (NOT_UNIT_MODULUS, PhaseShifts, Precoder,
                      effective_channels, lower_bound_sum_se, nmse_unit_modulus,
                      xi_scales)
from .scenario import check_count


@dataclass(frozen=True)
class LineSearchPlan:
    """Linearly spaced mu grid; a single mu is ``LineSearchPlan(mu, mu, 1)``."""

    mu_min: float = 0.0
    mu_max: float = 100.0
    n_points: int = 30

    def __post_init__(self):
        for name in ("mu_min", "mu_max"):
            value = getattr(self, name)
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.mu_min < 0:
            raise ValueError("mu_min must be >= 0")
        if self.mu_min > self.mu_max:
            raise ValueError("mu_min must be <= mu_max")
        check_count("n_points", self.n_points)
        if self.n_points > 1 and self.mu_min == self.mu_max:
            raise ValueError("n_points must be 1 when mu_min == mu_max")

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(self.mu_min, self.mu_max, self.n_points)


@dataclass(frozen=True)
class AlgorithmSettings:
    """Stopping rules of the method's three loops: ``precoder`` holds the
    precoder GPI's (ε₁, T₁), ``ris`` the RIS GPI's (ε₂, T₂) and
    ``alternation`` the alternation's (ε₃, T₃), whose step is the relative
    change of the objective."""

    precoder: GpiSettings = GpiSettings()
    ris: GpiSettings = GpiSettings()
    alternation: GpiSettings = GpiSettings()


@dataclass
class JointResult:
    best_precoder: Precoder
    best_phases: PhaseShifts            # projected
    best_w: np.ndarray                  # relaxed RIS vector behind best_phases
    best_mu: float
    objective: float                    # lower-bound sum SE of the best pair
    per_mu_final: dict[float, float]    # final objective recorded per mu point
    objective_trace: dict[float, list[float]]
    iterations: dict[float, int]        # alternation rounds run per mu point
    converged: dict[float, bool]        # ε₃ reached before T₃
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
    h_hat = effective_channels(est, phases)
    f0 = rzf_precoder(h_hat, rzf_regularizer(k, noise_over_p))
    return f0, phases


def run_joint(est: ChannelEstimate, noise_over_p: float, plan: LineSearchPlan,
              settings: AlgorithmSettings, rng: np.random.Generator,
              init: tuple[Precoder, PhaseShifts] | None = None) -> JointResult:
    """Full alternating optimization with the mu line search.

    Every grid point is a lane.  All lanes start from the shared initial
    pair and its objective, share the mu-independent first precoder stage
    (when it fails, every mu point fails with it), and then advance
    together one round at a time; a lane leaves once it meets ε₃ or fails,
    and only the lanes that fail on their own are recorded in ``errors``.
    Raises ``AllMuPointsFailed`` when no mu point is left.
    """
    n, k, _, _ = est.dims
    if init is None:
        init = initial_pair(est, noise_over_p, rng)
    f0, phi0 = init
    r_sigma = compute_r_sigma(est, f0, phi0, noise_over_p)
    mus = plan.grid
    grid = mus.tolist()
    timing = {"precoder": 0.0, "ris": 0.0, "objective": 0.0}
    lanes = _Lanes(len(grid), f0, phi0, r_sigma, settings.alternation.max_iters)
    rounds = (_compiled_rounds if est.is_isotropic and _kernel.available()
              else _numpy_rounds)
    rounds(est, noise_over_p, settings, mus, r_sigma, init, lanes, timing)
    return lanes.result(grid, f0, phi0, n, k, timing)


class AllMuPointsFailed(RuntimeError):
    """Every mu point of a ``run_joint`` failed; the message holds each
    point's error."""


_STAGE_ERRORS = (np.linalg.LinAlgError, FloatingPointError, ValueError)

# the numpy round's message for each failure code of the compiled round
# (see _round.c)
_ROUND_ERRORS = {
    1: f"FloatingPointError: {VANISHING}",
    2: "LinAlgError: block {} is not positive definite",
    3: f"LinAlgError: {DBAR_NOT_PD}",
    4: f"FloatingPointError: {NOT_UNIT_MODULUS}",
}


def _compiled_rounds(est, noise_over_p, settings, mus, r_sigma, init, lanes,
                     timing):
    """Every round as one compiled call over the active lanes."""
    rounds = _kernel.Rounds(est.stacked, est.conj_rows, est.err_scale, lanes.f,
                            lanes.w, mus, noise_over_p,
                            1.0 / (r_sigma * math.log(2)), ALPHA1, ALPHA2,
                            settings.precoder, settings.ris)
    # the first round's precoder stage, run for lane 0 alone, starts from
    # the initial phases
    phi0 = init[1]
    rounds.h[0] = effective_channels(est, phi0)
    rounds.xi[0] = xi_scales(est, phi0)
    rule = settings.alternation
    for rnd in range(rule.max_iters):
        sel = lanes.active
        if rounds(sel, first=rnd == 0):
            status = rounds.status[sel]
            for p in sel[status != 0]:
                lanes.fail(p, _ROUND_ERRORS[rounds.status[p]].format(
                    rounds.block[p]))
            sel = sel[status == 0]
        lanes.record(sel, rounds.obj[sel], rule.tol)
        if not lanes.active.size:
            break
    for key, seconds in zip(("precoder", "ris", "objective"),
                            rounds.seconds.tolist()):
        timing[key] += seconds


def _numpy_rounds(est, noise_over_p, settings, mus, r_sigma, init, lanes,
                  timing):
    """Every round through the numpy stages, one call each over the active
    lanes; a failing round is rerun lane by lane to find the lanes that fail
    on their own."""
    n, k, l, m = est.dims
    # the mu-independent first precoder stage, shared by every lane, which
    # all fail with it
    try:
        first = _precoder_stage(est, noise_over_p, settings, *init, timing)
    except _STAGE_ERRORS as exc:
        for p in lanes.active:
            lanes.fail(p, f"{type(exc).__name__}: {exc}")
        return
    # the lanes' phases, written by each round before the next one reads them
    phi = np.empty((len(mus), l, m), dtype=complex)
    rule = settings.alternation

    def advance(rnd, sel):
        """Round ``rnd`` of the lanes ``sel``: precoder stage (shared in the
        first round), RIS stage, objective."""
        if rnd == 0:
            stage = _lane_broadcast(first, sel.size)
        else:
            stage = _precoder_stage(est, noise_over_p, settings,
                                    Precoder.from_stacked(lanes.f[sel], n, k),
                                    PhaseShifts(phi[sel], projected=True),
                                    timing)
        f, w, phi_sel, obj = _ris_and_objective(est, noise_over_p, settings,
                                                mus[sel], r_sigma, lanes.w[sel],
                                                stage, timing)
        lanes.f[sel], lanes.w[sel], phi[sel] = f, w, phi_sel
        lanes.record(sel, obj, rule.tol)

    for rnd in range(rule.max_iters):
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


def _ris_and_objective(est, noise_over_p, settings, mu, r_sigma, w, stage,
                       timing):
    """RIS GPI for the stage's lanes, then the objective of the new pair."""
    precoder, ris_quad = stage
    t1 = time.perf_counter()
    ris = run_gpi_ris(ris_quad, mu, r_sigma, w, settings.ris)
    t2 = time.perf_counter()
    obj = lower_bound_sum_se(est, precoder, ris.phases, noise_over_p)
    t3 = time.perf_counter()
    timing["ris"] += t2 - t1
    timing["objective"] += t3 - t2
    return precoder.stacked, ris.w, ris.phases.per_ris, obj


class _Lanes:
    """Per-mu state of the alternation: current pair, best pair, trace.

    The rounds write each lane's new pair into ``f`` and ``w`` and then
    hand its objective to ``record``."""

    def __init__(self, p, f0, phi0, obj0, rounds):
        def rep(x):
            return np.repeat(x[None], p, axis=0)

        self.f, self.w = rep(f0.stacked), rep(phi0.normalized)
        self.obj_prev = np.full(p, obj0)
        self.best_obj = np.full(p, obj0)
        # the best pair of each lane, valid where improved (a round beat obj0)
        self.best_f, self.best_w = np.empty_like(self.f), np.empty_like(self.w)
        self.improved = np.zeros(p, dtype=bool)
        self.trace = np.empty((p, rounds))     # objective of each round
        self.iters = np.zeros(p, dtype=int)
        self.converged = np.zeros(p, dtype=bool)
        self.errors: dict[int, str] = {}
        self.active = np.arange(p)

    def record(self, sel, obj, tol):
        """Take one round of the lanes ``sel``; converged lanes leave."""
        self.trace[sel, self.iters[sel]] = obj
        self.iters[sel] += 1
        better = obj > self.best_obj[sel]
        if better.any():
            up = sel[better]
            self.best_obj[up] = obj[better]
            self.best_f[up], self.best_w[up] = self.f[up], self.w[up]
            self.improved[up] = True
        prev = self.obj_prev[sel]
        self.obj_prev[sel] = obj
        # relative change, taken only where the previous objective is
        # positive (elsewhere a NaN, which meets no tolerance)
        done = np.abs(obj - prev) / np.where(prev > 0, prev, np.nan) <= tol
        if done.any():
            self.converged[sel[done]] = True
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
            traces[mu] = self.trace[p, :self.iters[p]].tolist()
            iters[mu] = int(self.iters[p])
            converged[mu] = bool(self.converged[p])
            if best is None or self.best_obj[p] > self.best_obj[best]:
                best = p
        errors = {grid[p]: msg for p, msg in self.errors.items()}
        if best is None:
            raise AllMuPointsFailed(f"every mu point failed: {errors}")
        if not self.improved[best]:
            precoder, phases, w = f0, phi0, phi0.normalized
        else:
            precoder = Precoder.from_stacked(self.best_f[best], n, k)
            w = self.best_w[best]
            # projected as run_gpi_ris projects: every modulus exactly 1.0
            phases = PhaseShifts.from_normalized(w, *phi0.per_ris.shape).project()
        return JointResult(best_precoder=precoder, best_phases=phases, best_w=w,
                           best_mu=grid[best], objective=per_mu_final[grid[best]],
                           per_mu_final=per_mu_final, objective_trace=traces,
                           iterations=iters, converged=converged, timing=timing,
                           errors=errors)

"""Regularized generalized power iteration for the RIS phase shifts.

The relaxed unit-norm vector w carries all L*M elements; per-user quadratics
C_k / D_k are block diagonal over RISs, and the max-minus-min modulus penalty
is smoothed with LogSumExp so its gradient contributes diagonal softmax /
softmin weight matrices to the fixed-point pair.

The quadratics, the iterate and the penalty weight mu may carry a leading
lane axis (one lane per mu of the line search); ``run_gpi_ris`` then runs
every lane's loop in one compiled call.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, replace
from functools import cached_property
from math import log

import numpy as np
from scipy.special import logsumexp, softmax

from . import _kernel
from .channel import ChannelEstimate
from .gpi_precoder import GpiSettings, block_diag_solve
from .metrics import (PhaseShifts, Precoder, _lanes_out, nmse_unit_modulus,
                      theta_matrices)


@dataclass(frozen=True)
class RegularizerSettings:
    """Penalty weight mu with its normalizers and LogSumExp sharpness knobs.

    mu is a float, or one weight per lane of a lane-stacked call.
    """

    mu: float | np.ndarray = 0.0
    tau: float = 1.0
    r_sigma: float = 1.0
    alpha1: float = 2.0
    alpha2: float = 2.0

    def __post_init__(self):
        if np.any(np.asarray(self.mu) < 0):
            raise ValueError("mu must be >= 0")
        for name in ("tau", "r_sigma", "alpha1", "alpha2"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be > 0")


def default_tau(l: int, m: int) -> float:
    return 1.0 / (l * m)


@dataclass
class RisQuadratics:
    """Blockwise C_k / D_k of the RIS stage.

    c_blocks[k, l] = Upsilon_{k,l} + Theta_{k,l} and d_blocks[k, l] =
    Upsilon-bar_{k,l} + Theta_{k,l} (both before the sigma^2/P shift).
    With G_{k,l} = Hhat_{k,l}^H F (M x K, the l-matched estimate),
    Upsilon_{k,l} = LM * Hhat^H Q Hhat = LM * G G^H and Upsilon-bar_{k,l} =
    Upsilon_{k,l} - u u^H, where u = sqrt(LM) * (column k of G), so only C
    and u are stored and D = C - u u^H is formed when read.  Both arrays may
    carry the same leading lane axes.
    """

    c_blocks: np.ndarray     # (..., K, L, M, M)
    noise_over_p: float
    u_vecs: np.ndarray       # (..., K, L, M), C_k - D_k == u_k u_k^H

    @property
    def l(self) -> int:
        return self.c_blocks.shape[-3]

    @property
    def m(self) -> int:
        return self.c_blocks.shape[-2]

    @cached_property
    def d_blocks(self) -> np.ndarray:
        """(..., K, L, M, M) D_k = C_k - u_k u_k^H."""
        return self.c_blocks - self.u_vecs[..., :, None] * np.conj(
            self.u_vecs[..., None, :])

    def lane(self, idx) -> "RisQuadratics":
        """The unbatched quadratics of lane ``idx``."""
        return RisQuadratics(self.c_blocks[idx], self.noise_over_p,
                             self.u_vecs[idx])

    def quad_forms(self, w_blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w^H C_k w, w^H D_k w) for all k; unbatched, w_blocks is (L, M)."""
        power = float(np.sum(np.abs(w_blocks) ** 2))
        qc = np.einsum("la,klab,lb->k", w_blocks.conj(), self.c_blocks,
                       w_blocks).real + self.noise_over_p * power
        qd = np.einsum("la,klab,lb->k", w_blocks.conj(), self.d_blocks,
                       w_blocks).real + self.noise_over_p * power
        return qc, qd


def build_ris_quadratics(est: ChannelEstimate, precoder: Precoder,
                         noise_over_p: float) -> RisQuadratics:
    """C_k / D_k blocks for the given precoder, with its lane axes if any."""
    k, l, n, m = est.cascaded_est.shape
    lm = l * m
    f = precoder.matrix
    # G_{k,l} = Hhat_{k,l}^H F for every user and RIS as one (KLM x N) by
    # (N x K) product per lane; Upsilon = LM * G G^H keeps the cost at
    # O(K L N M K + K L M^2 K), where the sandwich Hhat^H Q Hhat would cost
    # O(K L N^2 M^2)
    h_rows = np.conj(np.swapaxes(est.cascaded_est, 2, 3)).reshape(k * l * m, n)
    g = (h_rows @ f).reshape(f.shape[:-2] + (k, l, m, k))
    c = g @ np.conj(np.swapaxes(g, -1, -2))
    c *= lm
    # theta_matrices is the quadratic for the unit-modulus phases phi; the
    # relaxed vector satisfies phi = sqrt(LM) w, so the same LM factor that
    # scales Upsilon applies to the error term as well
    theta = theta_matrices(est, precoder)
    theta *= lm
    c += theta
    # signal-column factors: C_k - D_k = LM (Hhat^H f_k)(Hhat^H f_k)^H
    u_vecs = np.sqrt(lm) * np.einsum("...klmk->...klm", g)  # own-user columns
    return RisQuadratics(c_blocks=c, noise_over_p=noise_over_p, u_vecs=u_vecs)


def smooth_max(values, alpha: float) -> float:
    """LogSumExp upper surrogate (1/alpha) ln sum exp(alpha x_i); >= max."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty value list")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return float(logsumexp(alpha * values) / alpha)


def smooth_min(values, alpha: float) -> float:
    """LogSumExp lower surrogate -alpha ln sum exp(-x_i/alpha); <= min."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty value list")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return float(-alpha * logsumexp(values / (-alpha)))


def penalty_weights(w: np.ndarray, reg: RegularizerSettings
                    ) -> tuple[np.ndarray, np.ndarray]:
    """Simplex weight vectors (softmax over alpha1*|w_i|^2, softmin over |w_i|^2/alpha2)."""
    x = np.abs(w) ** 2
    return softmax(reg.alpha1 * x), softmax(-x / reg.alpha2)


def log2_lambda_ris(q: RisQuadratics, reg: RegularizerSettings,
                    w: np.ndarray) -> float:
    """Smoothed regularized objective log2 lambda_RIS(w), evaluated in log domain."""
    w_blocks = np.asarray(w, dtype=complex).reshape((q.l, q.m))
    qc, qd = q.quad_forms(w_blocks)
    if np.any(qc <= 0) or np.any(qd <= 0):
        raise FloatingPointError("nonpositive quadratic form")
    x = np.abs(w) ** 2
    ratio_term = float(np.sum(np.log2(qc / qd))) / reg.r_sigma
    penalty = (reg.mu / reg.tau) * (smooth_max(x, reg.alpha1)
                                    - smooth_min(x, reg.alpha2))
    return ratio_term - penalty


def lambda_ris(q: RisQuadratics, reg: RegularizerSettings, w: np.ndarray) -> float:
    if abs(np.linalg.norm(w) - 1.0) > 1e-6:
        raise ValueError("w must be unit norm")
    return float(2.0 ** log2_lambda_ris(q, reg, w))


def ris_gpi_matrices(q: RisQuadratics, reg: RegularizerSettings, w: np.ndarray
                     ) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point pair (Cbar, Dbar) of one lane as stacked (L, M, M) blocks.

    Cbar = sum_k C_k/(w^H C_k w) / (R_sigma ln 2) + (mu/tau) diag(softmin),
    Dbar = sum_k D_k/(w^H D_k w) / (R_sigma ln 2) + (mu/tau) diag(softmax).

    The objective value lambda_RIS scales Cbar in the underlying fixed-point
    map, but it cancels from the normalized step and from the normalized
    residual ||Dbar^-1 (lam Cbar) w - lam w|| / lam == ||Dbar^-1 Cbar w - w||,
    so it is left out here.  For large mu it underflows a float64 anyway
    (its log is proportional to -mu/tau); use log2_lambda_ris to inspect it.
    """
    w = np.asarray(w, dtype=complex)
    if np.linalg.norm(w) == 0:
        raise ValueError("w must be nonzero")
    w_blocks = w.reshape((q.l, q.m))
    qc, qd = q.quad_forms(w_blocks)
    if np.any(qc <= 0) or np.any(qd <= 0):
        raise FloatingPointError("nonpositive quadratic form")
    scale = 1.0 / (reg.r_sigma * log(2))
    eye = np.eye(q.m)
    cbar = scale * (np.einsum("k,klab->lab", 1.0 / qc, q.c_blocks)
                    + q.noise_over_p * np.sum(1.0 / qc) * eye[None])
    dbar = scale * (np.einsum("k,klab->lab", 1.0 / qd, q.d_blocks)
                    + q.noise_over_p * np.sum(1.0 / qd) * eye[None])
    if reg.mu > 0:
        wmax, wmin = penalty_weights(w, reg)
        idx = np.arange(q.m)
        factor = reg.mu / reg.tau
        cbar[:, idx, idx] += factor * wmin.reshape((q.l, q.m))
        dbar[:, idx, idx] += factor * wmax.reshape((q.l, q.m))
    return cbar, dbar


@dataclass
class RisGpiResult:
    """Per-lane arrays when the call carried a lane axis; ``iterations`` is
    then the total over all lanes."""

    w: np.ndarray                # relaxed unit-norm solution
    phases: PhaseShifts          # projected, all moduli exactly 1
    iterations: int
    residual: float | np.ndarray  # fixed-point residual at exit
    nmse: float | np.ndarray     # unit-modulus deviation of the relaxed w
    loop_seconds: float = 0.0    # wall time of the loop and its exit residual


def _numpy_loop(q: RisQuadratics, reg: RegularizerSettings, w: np.ndarray,
                settings: GpiSettings) -> tuple[np.ndarray, int, float]:
    """Reference fixed-point loop for one lane from unit-norm w; returns
    (w, iterations, residual).

    Runs, lane by lane, when no C compiler is found, and is the oracle the
    compiled loop is tested against.
    """
    iters = 0
    for _ in range(settings.max_iters):
        iters += 1
        w_new = _image(q, reg, w)
        w_new = w_new / np.linalg.norm(w_new)
        step = np.linalg.norm(w_new - w)
        w = w_new
        if step <= settings.tol:
            break
    # lambda-free form of ||Dbar^-1 (lam Cbar) w - lam w|| / lam
    return w, iters, float(np.linalg.norm(_image(q, reg, w) - w))


def _image(q, reg, w):
    """Dbar(w)^-1 Cbar(w) w, unnormalized."""
    cbar, dbar = ris_gpi_matrices(q, reg, w)
    return block_diag_solve(dbar, np.einsum("lab,lb->la", cbar,
                                            w.reshape((q.l, q.m))))


def run_gpi_ris(q: RisQuadratics, reg: RegularizerSettings, w_init: np.ndarray,
                settings: GpiSettings) -> RisGpiResult:
    """Iterate w <- Dbar^-1 Cbar w with normalization, then project phases.

    ``w_init`` is (LM,) or (P, LM) against quadratics with the same lane
    axis, and ``reg.mu`` a float or one weight per lane.  The loop runs
    compiled when a C compiler is found (see ``_kernel``), all lanes in one
    call, and in numpy lane by lane otherwise; either way each lane also
    reports its fixed-point residual ||Dbar^-1 Cbar w - w|| at exit.  A
    non-positive-definite Dbar block in any lane raises
    ``np.linalg.LinAlgError``.
    """
    w = np.asarray(w_init, dtype=complex)
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(norm == 0):
        raise ValueError("initial w must be nonzero")
    w = w / norm
    lanes = w.shape[:-1]
    mu = np.broadcast_to(np.asarray(reg.mu, dtype=float), lanes)

    if _kernel.available():
        prep = _kernel.Prepared(q.c_blocks, q.u_vecs, w)
        loop = prep.bind(q.noise_over_p, 1.0 / (reg.r_sigma * log(2)), mu,
                         reg.tau, reg.alpha1, reg.alpha2, settings.tol,
                         settings.max_iters)
        t0 = time.perf_counter()
        iters = loop()
        loop_seconds = time.perf_counter() - t0
        if np.any(iters < 0):
            raise np.linalg.LinAlgError("denominator block not positive definite")
        w, residual = prep.w(), prep.residual()
    else:
        t0 = time.perf_counter()
        iters, residual = np.zeros(lanes, dtype=int), np.zeros(lanes)
        for idx in np.ndindex(lanes):
            w[idx], iters[idx], residual[idx] = _numpy_loop(
                q.lane(idx), replace(reg, mu=float(mu[idx])), w[idx], settings)
        loop_seconds = time.perf_counter() - t0
        residual = _lanes_out(residual)
    phases = PhaseShifts.from_normalized(w, q.l, q.m).project()
    return RisGpiResult(w=w, phases=phases, iterations=int(np.sum(iters)),
                        residual=residual, nmse=nmse_unit_modulus(w),
                        loop_seconds=loop_seconds)

"""Regularized generalized power iteration for the RIS phase shifts.

The relaxed unit-norm vector w carries all L*M elements; per-user quadratics
C_k / D_k are block diagonal over RISs, and the max-minus-min modulus penalty
is smoothed with LogSumExp so its gradient contributes diagonal softmax /
softmin weight matrices to the fixed-point pair.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from math import log

import numpy as np
from scipy.special import logsumexp, softmax

from . import _kernel
from .channel import ChannelEstimate
from .gpi_precoder import GpiSettings, block_diag_solve
from .metrics import PhaseShifts, Precoder, theta_matrices


@dataclass(frozen=True)
class RegularizerSettings:
    """Penalty weight mu with its normalizers and LogSumExp sharpness knobs."""

    mu: float = 0.0
    tau: float = 1.0
    r_sigma: float = 1.0
    alpha1: float = 2.0
    alpha2: float = 2.0

    def __post_init__(self):
        if self.mu < 0:
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
    Upsilon_{k,l} - u u^H, where u = sqrt(LM) * (column k of G).
    """

    c_blocks: np.ndarray     # (K, L, M, M)
    d_blocks: np.ndarray     # (K, L, M, M)
    noise_over_p: float
    u_vecs: np.ndarray       # (K, L, M), C_k - D_k == u_k u_k^H

    @property
    def l(self) -> int:
        return self.c_blocks.shape[1]

    @property
    def m(self) -> int:
        return self.c_blocks.shape[2]

    def quad_forms(self, w_blocks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(w^H C_k w, w^H D_k w) for all k; w_blocks is (L, M)."""
        power = float(np.sum(np.abs(w_blocks) ** 2))
        qc = np.einsum("la,klab,lb->k", w_blocks.conj(), self.c_blocks,
                       w_blocks).real + self.noise_over_p * power
        qd = np.einsum("la,klab,lb->k", w_blocks.conj(), self.d_blocks,
                       w_blocks).real + self.noise_over_p * power
        return qc, qd


def build_ris_quadratics(est: ChannelEstimate, precoder: Precoder,
                         noise_over_p: float) -> RisQuadratics:
    _, _, l, m = est.dims
    lm = l * m
    h = est.cascaded_est  # (K, L, N, M)
    # batched matmuls keep the cost at O(K L N M K + K L M^2 K), where the
    # sandwich Hhat^H Q Hhat would cost O(K L N^2 M^2)
    g = np.conj(np.swapaxes(h, 2, 3)) @ precoder.matrix  # (K, L, M, K)
    upsilon = lm * (g @ np.conj(np.swapaxes(g, 2, 3)))
    # signal-column factors: C_k - D_k = LM (Hhat^H f_k)(Hhat^H f_k)^H
    u_vecs = np.sqrt(lm) * np.einsum("klmk->klm", g)  # own-user columns
    upsilon_bar = upsilon - u_vecs[..., :, None] * np.conj(u_vecs[..., None, :])
    # theta_matrices is the quadratic for the unit-modulus phases phi; the
    # relaxed vector satisfies phi = sqrt(LM) w, so the same LM factor that
    # scales Upsilon applies to the error term as well
    theta = lm * theta_matrices(est, precoder)
    return RisQuadratics(c_blocks=upsilon + theta, d_blocks=upsilon_bar + theta,
                         noise_over_p=noise_over_p, u_vecs=u_vecs)


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
    """Fixed-point pair (Cbar, Dbar) as stacked (L, M, M) blocks.

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
    w: np.ndarray                # relaxed unit-norm solution
    phases: PhaseShifts          # projected, all moduli exactly 1
    iterations: int
    residual: float              # fixed-point residual at exit
    nmse: float                  # unit-modulus deviation of the relaxed w
    loop_seconds: float = 0.0    # wall time of the iteration loop body


def _numpy_loop(q: RisQuadratics, reg: RegularizerSettings, w: np.ndarray,
                settings: GpiSettings) -> tuple[np.ndarray, int]:
    """Reference fixed-point loop from unit-norm w; returns (w, iterations).

    Runs when no C compiler is found, and is the oracle the compiled loop
    is tested against.
    """
    iters = 0
    for _ in range(settings.max_iters):
        iters += 1
        cbar, dbar = ris_gpi_matrices(q, reg, w)
        rhs = np.einsum("lab,lb->la", cbar, w.reshape((q.l, q.m)))
        w_new = block_diag_solve(dbar, rhs)
        w_new = w_new / np.linalg.norm(w_new)
        step = np.linalg.norm(w_new - w)
        w = w_new
        if step <= settings.tol:
            break
    return w, iters


def run_gpi_ris(q: RisQuadratics, reg: RegularizerSettings, w_init: np.ndarray,
                settings: GpiSettings) -> RisGpiResult:
    """Iterate w <- Dbar^-1 Cbar w with normalization, then project phases.

    The loop runs compiled when a C compiler is found (see ``_kernel``) and
    in numpy otherwise; a non-positive-definite Dbar block raises
    ``np.linalg.LinAlgError`` on either path.
    """
    from .metrics import nmse_unit_modulus

    w = np.asarray(w_init, dtype=complex)
    norm = np.linalg.norm(w)
    if norm == 0:
        raise ValueError("initial w must be nonzero")
    w = w / norm

    if _kernel.available():
        prep = _kernel.Prepared(q.c_blocks, q.d_blocks, q.u_vecs, w)
        loop = prep.bind(q.noise_over_p, 1.0 / (reg.r_sigma * log(2)), reg.mu,
                         reg.tau, reg.alpha1, reg.alpha2, settings.tol,
                         settings.max_iters)
        t0 = time.perf_counter()
        iters = loop()
        loop_seconds = time.perf_counter() - t0
        if iters < 0:
            raise np.linalg.LinAlgError("denominator block not positive definite")
        w = prep.w()
    else:
        t0 = time.perf_counter()
        w, iters = _numpy_loop(q, reg, w, settings)
        loop_seconds = time.perf_counter() - t0
    cbar, dbar = ris_gpi_matrices(q, reg, w)
    rhs = np.einsum("lab,lb->la", cbar, w.reshape((q.l, q.m)))
    image = block_diag_solve(dbar, rhs)
    # lambda-free form of ||Dbar^-1 (lam Cbar) w - lam w|| / lam
    residual = float(np.linalg.norm(image - w))
    phases = PhaseShifts.from_normalized(w, q.l, q.m).project()
    return RisGpiResult(w=w, phases=phases, iterations=iters, residual=residual,
                        nmse=nmse_unit_modulus(w), loop_seconds=loop_seconds)

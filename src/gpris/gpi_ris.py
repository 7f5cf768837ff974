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
from dataclasses import dataclass
from functools import cached_property
from math import log

import numpy as np

from . import _kernel
from .channel import ChannelEstimate
from .gpi_precoder import GpiSettings, fixed_point
from .metrics import (PhaseShifts, Precoder, _lanes_out, add_to_diagonal,
                      nmse_unit_modulus, theta_matrices, theta_scales)


# smooth max ln(sum e^(ALPHA1 x))/ALPHA1, smooth min -ALPHA2 ln(sum e^(-x/ALPHA2))
ALPHA1 = ALPHA2 = 2.0
DBAR_NOT_PD = "denominator block not positive definite"


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

    @property
    def tau(self) -> float:
        """Normalizer 1/(LM) of the unit-modulus penalty weight mu."""
        return 1.0 / (self.l * self.m)

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
    k, l, _, m = est.cascaded_est.shape
    lm = l * m
    f = precoder.matrix
    # G_{k,l} = Hhat_{k,l}^H F for every user and RIS as one (KLM x N) by
    # (N x K) product per lane; Upsilon = LM * G G^H keeps the cost at
    # O(K L N M K + K L M^2 K), where the sandwich Hhat^H Q Hhat would cost
    # O(K L N^2 M^2)
    g = (est.conj_rows @ f).reshape(f.shape[:-2] + (k, l, m, k))
    c = np.matmul(g, np.conj(np.swapaxes(g, -1, -2)))
    c *= lm
    # theta_matrices is the quadratic for the unit-modulus phases phi; the
    # relaxed vector satisfies phi = sqrt(LM) w, so the same LM factor that
    # scales Upsilon applies to the error term as well
    if est.is_isotropic:
        add_to_diagonal(c, lm * theta_scales(est, precoder))  # Theta = theta I
    else:
        theta = theta_matrices(est, precoder)
        theta *= lm
        c += theta
    # signal-column factors: C_k - D_k = LM (Hhat^H f_k)(Hhat^H f_k)^H
    u_vecs = np.sqrt(lm) * np.einsum("...klmk->...klm", g)  # own-user columns
    return RisQuadratics(c_blocks=c, noise_over_p=noise_over_p, u_vecs=u_vecs)


def penalty_weights(w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Simplex weight vectors (softmax over ALPHA1*|w_i|^2, softmin over
    |w_i|^2/ALPHA2), shifted by the extreme modulus as ``_ris_loop.c`` does."""
    x = np.abs(w) ** 2
    e_max = np.exp(ALPHA1 * (x - x.max()))
    e_min = np.exp(-(x - x.min()) / ALPHA2)
    return e_max / e_max.sum(), e_min / e_min.sum()


def ris_gpi_matrices(q: RisQuadratics, mu: float, r_sigma: float,
                     w: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Fixed-point pair (Cbar, Dbar) of one lane, at the float ``mu`` and
    normalizer ``r_sigma``, as stacked (L, M, M) blocks.

    Cbar = sum_k C_k/(w^H C_k w) / (R_sigma ln 2) + (mu/tau) diag(softmin),
    Dbar = sum_k D_k/(w^H D_k w) / (R_sigma ln 2) + (mu/tau) diag(softmax),
    with tau = 1/(LM) derived from the quadratics (``q.tau``).

    The objective value lambda_RIS scales Cbar in the underlying fixed-point
    map, but it cancels from the normalized step, so it is left out here.
    For large mu it underflows a float64 anyway (its log is proportional to
    -mu/tau), so inspect it in the log domain: sum_k log2(w^H C_k w /
    w^H D_k w) / R_sigma minus mu/tau times the LogSumExp modulus spread.
    """
    w = np.asarray(w, dtype=complex)
    if np.linalg.norm(w) == 0:
        raise ValueError("w must be nonzero")
    w_blocks = w.reshape((q.l, q.m))
    qc, qd = q.quad_forms(w_blocks)
    if np.any(qc <= 0) or np.any(qd <= 0):
        raise FloatingPointError("nonpositive quadratic form")
    scale = 1.0 / (r_sigma * log(2))
    eye = np.eye(q.m)
    cbar = scale * (np.einsum("k,klab->lab", 1.0 / qc, q.c_blocks)
                    + q.noise_over_p * np.sum(1.0 / qc) * eye[None])
    dbar = scale * (np.einsum("k,klab->lab", 1.0 / qd, q.d_blocks)
                    + q.noise_over_p * np.sum(1.0 / qd) * eye[None])
    if mu > 0:
        wmax, wmin = penalty_weights(w)
        idx = np.arange(q.m)
        factor = mu / q.tau
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
    step: float | np.ndarray     # last step ||w_t - w_{t-1}|| of the loop
    nmse: float | np.ndarray     # unit-modulus deviation of the relaxed w
    loop_seconds: float = 0.0    # wall time of the loop (compiled: and of
                                 # its intake)


def block_diag_solve(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve blkdiag(blocks) x = rhs for Hermitian PD blocks.

    blocks is (..., K, N, N) and rhs holds K*N entries per lane, block by
    block (a column-stacked (..., K*N) vector or a (..., K, N) array);
    returns x column-stacked, (..., K*N).  Raises with the offending block
    index if a block is not positive definite.  The numpy RIS fallback
    solves through here.
    """
    k, n = blocks.shape[-3], blocks.shape[-1]
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        for idx in np.ndindex(blocks.shape[:-2]):
            try:
                np.linalg.cholesky(blocks[idx])
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"block {idx[-1]} is not positive definite") from exc
        raise
    lanes = blocks.shape[:-3]
    cols = np.asarray(rhs).reshape(lanes + (k, n, 1))
    return np.linalg.solve(blocks, cols).reshape(lanes + (k * n,))


def _image(q, mu, r_sigma, w):
    """Dbar(w)^-1 Cbar(w) w, unnormalized."""
    cbar, dbar = ris_gpi_matrices(q, mu, r_sigma, w)
    return block_diag_solve(dbar, np.einsum("lab,lb->la", cbar,
                                            w.reshape((q.l, q.m))))


def run_gpi_ris(q: RisQuadratics, mu: float | np.ndarray, r_sigma: float,
                w_init: np.ndarray, settings: GpiSettings) -> RisGpiResult:
    """Iterate w <- Dbar^-1 Cbar w with normalization, then project phases.

    ``w_init`` is (LM,) or (P, LM) against quadratics with the same lane
    axis, ``mu`` the penalty weight, finite and >= 0, a float or one per
    lane, and ``r_sigma`` > 0 the sum-SE normalizer.  The loop runs compiled
    when a C compiler is found (see ``_kernel``), all lanes in one call, and
    through ``gpi_precoder.fixed_point`` lane by lane otherwise; either way
    each lane also reports the last step ||w_t - w_{t-1}|| its stopping rule
    took.  A non-positive-definite Dbar block in any lane raises
    ``np.linalg.LinAlgError``.
    """
    mu_arr = np.asarray(mu, dtype=float)
    if not (np.all((0 <= mu_arr) & (mu_arr < np.inf)) and r_sigma > 0):
        raise ValueError(f"need finite mu >= 0 and r_sigma > 0, got {mu}, {r_sigma}")
    w = np.asarray(w_init, dtype=complex)
    norm = np.linalg.norm(w, axis=-1, keepdims=True)
    if np.any(norm == 0):
        raise ValueError("initial w must be nonzero")
    w = w / norm
    lanes = w.shape[:-1]
    mu = np.broadcast_to(mu_arr, lanes)

    if _kernel.available():
        iters, step, loop_seconds = _kernel.ris_loop(
            q.c_blocks, q.u_vecs, w.reshape(-1, q.l * q.m), mu.reshape(-1),
            q.noise_over_p, 1.0 / (r_sigma * log(2)), ALPHA1, ALPHA2,
            settings.tol, settings.max_iters)
        if np.any(iters < 0):
            raise np.linalg.LinAlgError(DBAR_NOT_PD)
        step = step.reshape(lanes)
    else:
        t0 = time.perf_counter()
        iters, step = np.zeros(lanes, dtype=int), np.zeros(lanes)
        for idx in np.ndindex(lanes):
            lane, lane_mu = q.lane(idx), float(mu[idx])
            w[idx], iters[idx], step[idx] = fixed_point(
                lambda x: _image(lane, lane_mu, r_sigma, x), w[idx], settings)
        loop_seconds = time.perf_counter() - t0
    phases = PhaseShifts.from_normalized(w, q.l, q.m).project()
    return RisGpiResult(w=w, phases=phases, iterations=int(np.sum(iters)),
                        step=_lanes_out(step), nmse=nmse_unit_modulus(w),
                        loop_seconds=loop_seconds)

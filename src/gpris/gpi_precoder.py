"""Generalized power iteration for the precoder.

Each user contributes a Rayleigh quotient f^H A_k f / f^H B_k f where A_k and
B_k are NK x NK block-diagonal with a repeated N x N block, so quadratic forms
are done blockwise, and each fixed-point step factors only the one N x N
block common to all K denominator blocks (see ``gpi_matrices``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _kernel
from .channel import ChannelEstimate
from .metrics import (PhaseShifts, _lanes_out, add_to_diagonal,
                      block_quad_forms, effective_channels, xi_matrices,
                      xi_scales)


@dataclass(frozen=True)
class GpiSettings:
    """Stopping rule of one loop: the paper's tolerance ε (``tol``) and cap
    T (``max_iters``); ``joint.AlgorithmSettings`` holds one per loop."""

    tol: float = 0.01
    max_iters: int = 20

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


def fixed_point(image, x: np.ndarray, settings: GpiSettings,
                signed: bool = False) -> tuple[np.ndarray, int, float]:
    """Iterate x <- image(x) / ||image(x)|| on one lane from the unit-norm
    vector ``x`` until a step ||x_new - x|| is at most ``settings.tol`` or
    ``settings.max_iters`` steps ran; returns (x, steps, the last step).
    With ``signed`` the step is the smaller of ||x_new - x|| and
    ||x_new + x||, as x and -x are the same point.  Both stages run here
    when no C compiler is found, and it is the oracle their compiled loops
    are tested against."""
    for steps in range(1, settings.max_iters + 1):
        x_new = image(x)
        x_new = x_new / np.linalg.norm(x_new, axis=-1)
        step = np.linalg.norm(x_new - x, axis=-1)
        if signed:
            step = min(step, np.linalg.norm(x_new + x, axis=-1))
        x = x_new
        if step <= settings.tol:
            break
    return x, steps, step


@dataclass
class PrecoderQuadratics:
    """Blockwise representation of the A_k / B_k quadratics.

    g_blocks[k] = h_hat_k h_hat_k^H + Xi_k is the repeated diagonal block of
    A_k (before the sigma^2/P shift); B_k removes the signal outer product
    from the k-th block only.  Under isotropic errors, Xi_k = xi_k I, ``xi``
    holds the xi_k, which is all the compiled loop reads besides h_hat; it is
    None for dense errors.  Given xi, the blocks may be left out (None) and
    are then formed on first use, as only the numpy loop reads them.  The
    arrays may carry leading lane axes.
    """

    h_hat: np.ndarray        # (..., K, N) estimated effective channels
    _g: np.ndarray | None    # (..., K, N, N) g_blocks, or None (see above)
    noise_over_p: float
    xi: np.ndarray | None = None  # (..., K) real, or None

    @property
    def g_blocks(self) -> np.ndarray:
        if self._g is None:
            self._g = self.h_hat[..., :, None] * self.h_hat[..., None, :].conj()
            add_to_diagonal(self._g, self.xi)  # Xi_k = xi_k I
        return self._g

    @property
    def n(self) -> int:
        return self.h_hat.shape[-1]

    @property
    def k(self) -> int:
        return self.h_hat.shape[-2]

    def quad_forms(self, f_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f^H A_k f, f^H B_k f) for all k; f_mat is the (..., N, K) precoder."""
        power = np.sum(np.abs(f_mat) ** 2, axis=(-2, -1))
        qa = block_quad_forms(self.g_blocks, f_mat) \
            + self.noise_over_p * power[..., None]
        signal = np.abs(np.einsum("...kn,...nk->...k", self.h_hat.conj(),
                                  f_mat)) ** 2
        return qa, qa - signal


def build_precoder_quadratics(est: ChannelEstimate, phases: PhaseShifts,
                              noise_over_p: float) -> PrecoderQuadratics:
    """A_k / B_k blocks at the given phases, with their lane axes if any."""
    h_hat = effective_channels(est, phases)
    if est.is_isotropic:
        return PrecoderQuadratics(h_hat, None, noise_over_p,
                                  xi_scales(est, phases))
    g = h_hat[..., :, None] * h_hat[..., None, :].conj()
    g += xi_matrices(est, phases)
    return PrecoderQuadratics(h_hat, g, noise_over_p)


VANISHING = "vanishing quadratic form in GPI matrices"


def _weighted_block_sum(weights: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_k weights_jk blocks_k for real (..., J, K) weights and complex
    (..., K, N, N) blocks: (..., J, N, N), as one real matmul per lane."""
    k, n = blocks.shape[-3], blocks.shape[-1]
    flat = np.ascontiguousarray(blocks).reshape(
        blocks.shape[:-3] + (k, n * n)).view(np.float64)
    return (weights @ flat).view(complex).reshape(weights.shape[:-1] + (n, n))


def gpi_matrices(q: PrecoderQuadratics, f_mat: np.ndarray):
    """Fixed-point image at f: returns (Bbar^-1 Abar f column-stacked, lambda_bs).

    With the split lambda_num = lambda_BS and lambda_den = 1, Abar folds the
    eigenvalue and Bbar is the plain weighted sum.  Abar is block diagonal
    with one repeated N x N block lambda A; Bbar's k-th block is the common
    block B minus the k-th signal outer product h_k h_k^H / qb_k.  So one
    solve with B maps lambda A f_k -> y_k and h_k -> z_k, and
    Sherman-Morrison gives the k-th image column y_k + z_k (h_k^H y_k) / s_k
    with s_k = qb_k - h_k^H z_k.  Bbar_k is positive definite exactly when
    B is and s_k > 0.  With lane axes, lambda_bs holds one value per lane.
    This is the reference the compiled loop (``_precoder_loop.c``) mirrors
    on isotropic quadratics: here the dense blocks G_k form A and B, a
    Cholesky call checks B and ``np.linalg.solve`` then solves with it,
    where the compiled loop forms A f and B from h-hat and xi and solves
    with that one Cholesky factor.
    """
    qa, qb = q.quad_forms(f_mat)
    if np.any(qa <= 0) or np.any(qb <= 0):
        raise FloatingPointError(VANISHING)
    lam = np.prod(qa / qb, axis=-1)
    inv = 1.0 / np.stack([qa, qb], axis=-2)  # (..., 2, K)
    # the weighted sums of A's and B's common block, then their noise floors
    ab = _weighted_block_sum(inv, q.g_blocks)
    diag = np.arange(q.n)
    ab[..., diag, diag] += (q.noise_over_p * np.sum(inv, axis=-1))[..., None]
    try:
        np.linalg.cholesky(ab[..., 1, :, :])
    except np.linalg.LinAlgError as exc:
        # every Bbar_k lies below B, so the first block fails with it
        raise np.linalg.LinAlgError("block 0 is not positive definite") from exc
    h_cols = np.swapaxes(q.h_hat, -1, -2)
    rhs = np.concatenate([lam[..., None, None] * (ab[..., 0, :, :] @ f_mat),
                          h_cols], axis=-1)
    yz = np.linalg.solve(ab[..., 1, :, :], rhs)
    y, z = yz[..., :q.k], yz[..., q.k:]
    s = qb - np.sum(h_cols.conj() * z, axis=-2).real
    bad = np.argwhere(s <= 0)
    if bad.size:
        raise np.linalg.LinAlgError(f"block {bad[0, -1]} is not positive definite")
    x = y + z * (np.sum(h_cols.conj() * y, axis=-2) / s)[..., None, :]
    return np.swapaxes(x, -1, -2).reshape(x.shape[:-2] + (-1,)), lam


def run_gpi_precoder(q: PrecoderQuadratics, f_init: np.ndarray,
                     settings: GpiSettings):
    """Iterate f <- Bbar^-1 Abar f with normalization until the step is small.

    Returns (unit-norm stacked precoder, iterations, last step), the step
    being minimized over the +-f sign ambiguity: the smaller of
    ||f_t - f_{t-1}|| and ||f_t + f_{t-1}||.  With a leading lane axis
    (f_init (P, NK) against lane-stacked quadratics) each lane stops once its
    own step reaches the tolerance; the iteration count is then the total
    over all lanes and the step holds one value per lane.  The lanes run
    one after another.  On isotropic quadratics (``q.xi`` set) the loop runs
    compiled when a C compiler is found (see ``_kernel``); dense errors and
    hosts without a compiler run it through ``fixed_point``.  A Bbar block
    that is not positive definite raises ``np.linalg.LinAlgError`` naming
    the block, and a vanishing quadratic form ``FloatingPointError``.
    """
    f = np.asarray(f_init, dtype=complex)
    norm = np.linalg.norm(f, axis=-1, keepdims=True)
    if np.any(norm == 0):
        raise ValueError("initial precoder must be nonzero")
    lanes = f.shape[:-1]
    n, k = q.n, q.k
    # the lane axis always exists inside the loop; an unbatched call is one lane
    f = (f / norm).reshape(-1, n * k)
    h = q.h_hat.reshape((-1, k, n))
    iters, step = 0, np.zeros(f.shape[0])
    for p in range(f.shape[0]):
        if q.xi is not None and _kernel.available():
            steps, block, step[p] = _kernel.precoder_loop(
                h[p], q.xi.reshape((-1, k))[p], f[p], q.noise_over_p,
                settings.tol, settings.max_iters)
            if steps < 0 and block < 0:
                raise FloatingPointError(VANISHING)
            if steps < 0:
                raise np.linalg.LinAlgError(
                    f"block {block} is not positive definite")
        else:
            lane = PrecoderQuadratics(
                h[p], q.g_blocks.reshape((-1, k, n, n))[p], q.noise_over_p)
            f[p], steps, step[p] = fixed_point(
                lambda x: gpi_matrices(lane, _as_matrix(x, n, k))[0], f[p],
                settings, signed=True)
        iters += steps
    return (f.reshape(lanes + (n * k,)), iters,
            _lanes_out(step.reshape(lanes)))


def _as_matrix(f: np.ndarray, n: int, k: int) -> np.ndarray:
    """(..., NK) column-stacked vectors as (..., N, K) matrices (views)."""
    return np.swapaxes(f.reshape(f.shape[:-1] + (k, n)), -1, -2)

"""Generalized power iteration for the precoder.

Each user contributes a Rayleigh quotient f^H A_k f / f^H B_k f where A_k and
B_k are NK x NK block-diagonal with a repeated N x N block, so quadratic forms
and the fixed-point solve are done blockwise (K solves of size N instead of
one of size NK).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelEstimate
from .metrics import (PhaseShifts, Precoder, _lanes_out, block_quad_forms,
                      effective_channels, xi_matrices)


@dataclass(frozen=True)
class GpiSettings:
    """Stopping rule of a GPI loop (shared by the RIS stage)."""

    tol: float = 0.01
    max_iters: int = 20

    def __post_init__(self):
        if self.tol <= 0:
            raise ValueError("tol must be > 0")
        if self.max_iters < 1:
            raise ValueError("max_iters must be >= 1")


@dataclass
class PrecoderQuadratics:
    """Blockwise representation of the A_k / B_k quadratics.

    g_blocks[k] = h_hat_k h_hat_k^H + Xi_k is the repeated diagonal block of
    A_k (before the sigma^2/P shift); B_k removes the signal outer product
    from the k-th block only.  Both arrays may carry leading lane axes.
    """

    h_hat: np.ndarray        # (..., K, N) estimated effective channels
    g_blocks: np.ndarray     # (..., K, N, N)
    noise_over_p: float

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
    h_hat = effective_channels(est.cascaded_est, phases)
    xi = xi_matrices(est, phases)
    g = xi + h_hat[..., :, None] * h_hat[..., None, :].conj()
    return PrecoderQuadratics(h_hat=h_hat, g_blocks=g, noise_over_p=noise_over_p)


def lambda_bs(q: PrecoderQuadratics, f_mat: np.ndarray) -> float:
    """Product of Rayleigh quotients, the generalized eigenvalue at f."""
    qa, qb = q.quad_forms(f_mat)
    if np.any(qb <= 0):
        raise FloatingPointError("vanishing denominator quadratic form")
    return float(np.prod(qa / qb))


def _weighted_block_sum(weights: np.ndarray, blocks: np.ndarray) -> np.ndarray:
    """sum_k weights_jk blocks_k for real (..., J, K) weights and complex
    (..., K, N, N) blocks: (..., J, N, N), as one real matmul per lane."""
    k, n = blocks.shape[-3], blocks.shape[-1]
    flat = np.ascontiguousarray(blocks).reshape(
        blocks.shape[:-3] + (k, n * n)).view(np.float64)
    return (weights @ flat).view(complex).reshape(weights.shape[:-1] + (n, n))


def gpi_matrices(q: PrecoderQuadratics, f_mat: np.ndarray):
    """Fixed-point pair at f: returns (apply_abar, bbar_blocks, lambda_bs).

    With the split lambda_num = lambda_BS and lambda_den = 1, Abar folds the
    eigenvalue and Bbar is the plain weighted sum.  Abar is block diagonal
    with one repeated N x N block; Bbar's k-th block additionally subtracts
    the k-th signal outer product.  With lane axes, lambda_bs holds one
    value per lane.
    """
    qa, qb = q.quad_forms(f_mat)
    if np.any(qa <= 0) or np.any(qb <= 0):
        raise FloatingPointError("vanishing quadratic form in GPI matrices")
    lam = np.prod(qa / qb, axis=-1)
    inv = 1.0 / np.stack([qa, qb], axis=-2)  # (..., 2, K)
    # the weighted sums of A's and B's common block, then their noise floors
    ab = _weighted_block_sum(inv, q.g_blocks)
    diag = np.arange(q.n)
    ab[..., diag, diag] += (q.noise_over_p * np.sum(inv, axis=-1))[..., None]
    a_block, b_common = ab[..., 0, :, :], ab[..., 1, :, :]
    # Bbar_k = common block - h_k h_k^H / qb_k, formed in one buffer
    bbar_blocks = (q.h_hat / qb[..., None])[..., :, None] * q.h_hat[..., None, :].conj()
    np.subtract(b_common[..., None, :, :], bbar_blocks, out=bbar_blocks)

    def apply_abar(f_cols: np.ndarray) -> np.ndarray:
        return lam[..., None, None] * (a_block @ f_cols)

    return apply_abar, bbar_blocks, lam


def block_diag_solve(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve blkdiag(blocks) x = rhs for Hermitian PD blocks.

    blocks is (..., K, N, N) and rhs holds K*N entries per lane, block by
    block (a column-stacked (..., K*N) vector or a (..., K, N) array);
    returns x column-stacked, (..., K*N).  Raises with the offending block
    index if a block is not positive definite.  Both GPI stages solve
    through here.
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


def run_gpi_precoder(q: PrecoderQuadratics, f_init: np.ndarray,
                     settings: GpiSettings):
    """Iterate f <- Bbar^-1 Abar f with normalization until the step is small.

    Returns (unit-norm stacked precoder, iterations, fixed-point residual).
    The step norm is minimized over the +-f sign ambiguity.  With a leading
    lane axis (f_init (P, NK) against lane-stacked quadratics) each lane
    stops once its own step reaches the tolerance; the iteration count is
    then the total over all lanes and the residual holds one value per lane.
    """
    f = np.asarray(f_init, dtype=complex)
    norm = np.linalg.norm(f, axis=-1, keepdims=True)
    if np.any(norm == 0):
        raise ValueError("initial precoder must be nonzero")
    lanes = f.shape[:-1]
    n, k = q.n, q.k
    # the lane axis always exists inside the loop; an unbatched call is one lane
    f = (f / norm).reshape(-1, n * k)
    quad = PrecoderQuadratics(q.h_hat.reshape((-1, k, n)),
                              q.g_blocks.reshape((-1, k, n, n)), q.noise_over_p)
    # the running lanes: their indices, iterates and quadratics
    idx, f_run, q_run = np.arange(f.shape[0]), f, quad
    iters = 0
    for _ in range(settings.max_iters):
        iters += idx.size
        f_mat = _as_matrix(f_run, n, k)
        apply_abar, bbar_blocks, _ = gpi_matrices(q_run, f_mat)
        # Abar f as (K, N) rows, i.e. the column-stacked right-hand side
        f_new = block_diag_solve(bbar_blocks,
                                 np.swapaxes(apply_abar(f_mat), -1, -2))
        f_new = f_new / np.linalg.norm(f_new, axis=-1, keepdims=True)
        step = np.minimum(np.linalg.norm(f_new - f_run, axis=-1),
                          np.linalg.norm(f_new + f_run, axis=-1))
        f_run = f_new
        done = step <= settings.tol
        if done.any():
            f[idx] = f_run
            if done.all():
                break
            going = ~done
            idx, f_run = idx[going], f_run[going]
            q_run = PrecoderQuadratics(q_run.h_hat[going], q_run.g_blocks[going],
                                       q.noise_over_p)
    else:
        f[idx] = f_run
    f_mat = _as_matrix(f, n, k)
    apply_abar, bbar_blocks, lam = gpi_matrices(quad, f_mat)
    image = block_diag_solve(bbar_blocks, np.swapaxes(apply_abar(f_mat), -1, -2))
    residual = np.linalg.norm(image - lam[:, None] * f, axis=-1) / np.abs(lam)
    return (f.reshape(lanes + (n * k,)), iters,
            _lanes_out(residual.reshape(lanes)))


def _as_matrix(f: np.ndarray, n: int, k: int) -> np.ndarray:
    """(..., NK) column-stacked vectors as (..., N, K) matrices (views)."""
    return np.swapaxes(f.reshape(f.shape[:-1] + (k, n)), -1, -2)

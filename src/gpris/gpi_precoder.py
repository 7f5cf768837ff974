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
from .metrics import PhaseShifts, Precoder, effective_channels, xi_matrices


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
    from the k-th block only.
    """

    h_hat: np.ndarray        # (K, N) estimated effective channels
    g_blocks: np.ndarray     # (K, N, N)
    noise_over_p: float

    @property
    def n(self) -> int:
        return self.h_hat.shape[1]

    @property
    def k(self) -> int:
        return self.h_hat.shape[0]

    def quad_forms(self, f_mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """(f^H A_k f, f^H B_k f) for all k; f_mat is the N x K precoder."""
        power = float(np.sum(np.abs(f_mat) ** 2))
        qa = np.einsum("ni,knm,mi->k", f_mat.conj(), self.g_blocks, f_mat).real
        qa = qa + self.noise_over_p * power
        signal = np.abs(np.einsum("kn,nk->k", self.h_hat.conj(), f_mat)) ** 2
        return qa, qa - signal

    def dense_matrix(self, k: int, with_signal: bool) -> np.ndarray:
        """Dense NK x NK A_k (with_signal=True) or B_k (test oracle)."""
        n, nk = self.n, self.n * self.k
        a = np.kron(np.eye(self.k), self.g_blocks[k]) + self.noise_over_p * np.eye(nk)
        if not with_signal:
            sig = np.outer(self.h_hat[k], self.h_hat[k].conj())
            a[k * n:(k + 1) * n, k * n:(k + 1) * n] -= sig
        return a


def build_precoder_quadratics(est: ChannelEstimate, phases: PhaseShifts,
                              noise_over_p: float) -> PrecoderQuadratics:
    h_hat = effective_channels(est.cascaded_est, phases)
    xi = xi_matrices(est, phases)
    g = xi + np.einsum("kn,km->knm", h_hat, h_hat.conj())
    return PrecoderQuadratics(h_hat=h_hat, g_blocks=g, noise_over_p=noise_over_p)


def lambda_bs(q: PrecoderQuadratics, f_mat: np.ndarray) -> float:
    """Product of Rayleigh quotients, the generalized eigenvalue at f."""
    qa, qb = q.quad_forms(f_mat)
    if np.any(qb <= 0):
        raise FloatingPointError("vanishing denominator quadratic form")
    return float(np.prod(qa / qb))


def gpi_matrices(q: PrecoderQuadratics, f_mat: np.ndarray):
    """Fixed-point pair at f: returns (apply_abar, bbar_blocks, lambda_bs).

    With the split lambda_num = lambda_BS and lambda_den = 1, Abar folds the
    eigenvalue and Bbar is the plain weighted sum.  Abar is block diagonal
    with one repeated N x N block; Bbar's k-th block additionally subtracts
    the k-th signal outer product.
    """
    qa, qb = q.quad_forms(f_mat)
    if np.any(qa <= 0) or np.any(qb <= 0):
        raise FloatingPointError("vanishing quadratic form in GPI matrices")
    lam = float(np.prod(qa / qb))
    n, k = q.n, q.k
    eye = np.eye(n)
    a_block = np.einsum("k,knm->nm", 1.0 / qa, q.g_blocks) \
        + q.noise_over_p * np.sum(1.0 / qa) * eye
    b_common = np.einsum("k,knm->nm", 1.0 / qb, q.g_blocks) \
        + q.noise_over_p * np.sum(1.0 / qb) * eye
    bbar_blocks = np.broadcast_to(b_common, (k, n, n)).copy()
    sig = np.einsum("kn,km->knm", q.h_hat, q.h_hat.conj())
    bbar_blocks -= sig / qb[:, None, None]

    def apply_abar(f_cols: np.ndarray) -> np.ndarray:
        return lam * (a_block @ f_cols)

    return apply_abar, bbar_blocks, lam


def block_diag_solve(blocks: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Solve blkdiag(blocks) x = rhs for Hermitian PD blocks.

    blocks is (K, N, N) and rhs holds K*N entries, block by block (a
    column-stacked vector or a (K, N) array); returns x column-stacked.
    Raises with the offending block index if a block is not positive
    definite.  Both GPI stages solve through here.
    """
    k, n, _ = blocks.shape
    try:
        np.linalg.cholesky(blocks)
    except np.linalg.LinAlgError:
        for idx in range(k):
            try:
                np.linalg.cholesky(blocks[idx])
            except np.linalg.LinAlgError as exc:
                raise np.linalg.LinAlgError(
                    f"block {idx} is not positive definite") from exc
        raise
    cols = np.asarray(rhs).reshape((k, n, 1))
    return np.linalg.solve(blocks, cols).reshape(k * n)


def run_gpi_precoder(q: PrecoderQuadratics, f_init: np.ndarray,
                     settings: GpiSettings) -> tuple[np.ndarray, int, float]:
    """Iterate f <- Bbar^-1 Abar f with normalization until the step is small.

    Returns (unit-norm stacked precoder, iterations, fixed-point residual).
    The step norm is minimized over the +-f sign ambiguity.
    """
    f = np.asarray(f_init, dtype=complex)
    norm = np.linalg.norm(f)
    if norm == 0:
        raise ValueError("initial precoder must be nonzero")
    f = f / norm
    n, k = q.n, q.k
    iters = 0
    for _ in range(settings.max_iters):
        iters += 1
        f_mat = f.reshape((n, k), order="F")
        apply_abar, bbar_blocks, _ = gpi_matrices(q, f_mat)
        # Abar f as (K, N) rows, i.e. the column-stacked right-hand side
        f_new = block_diag_solve(bbar_blocks, apply_abar(f_mat).T)
        f_new = f_new / np.linalg.norm(f_new)
        step = min(np.linalg.norm(f_new - f), np.linalg.norm(f_new + f))
        f = f_new
        if step <= settings.tol:
            break
    f_mat = f.reshape((n, k), order="F")
    apply_abar, bbar_blocks, lam = gpi_matrices(q, f_mat)
    image = block_diag_solve(bbar_blocks, apply_abar(f_mat).T)
    residual = float(np.linalg.norm(image - lam * f) / abs(lam))
    return f, iters, residual

"""Spectral-efficiency metrics and the Jensen lower bound in both quadratic forms.

The bound's error term appears either as f_i^H Xi_k f_i (precoder-quadratic,
with Xi_k built from phase shifts) or as phi_l^H Theta_{k,l} phi_l
(phase-quadratic, with Theta built from the precoder through the commutation
matrix).  Both are contractions of the same NM x NM error covariance and agree
exactly; the reshape-based routines below avoid materializing Kronecker
products (the tests hold dense Kronecker references).

Precoders, phase shifts and the bound take an optional leading lane axis
(one lane per penalty weight of the line search).  Lanes only ever enter
the stacked dimensions of a matmul and reductions run over trailing axes,
so each lane is computed by the same operations whatever other lanes share
its batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .channel import ChannelEstimate, _cn_vector, _psd_factor


@dataclass
class Precoder:
    """K beamforming vectors as columns of an N x K matrix, total power <= 1.

    ``matrix`` may carry leading lane axes, (..., N, K).
    """

    matrix: np.ndarray

    def __post_init__(self):
        matrix = np.asarray(self.matrix, dtype=complex)
        if matrix.ndim < 2:
            raise ValueError("precoder must be an N x K matrix")
        # column-major within each lane (the layout of the stacked vector),
        # so sums over a precoder run in one order whatever built it
        self.matrix = np.swapaxes(np.ascontiguousarray(
            np.swapaxes(matrix, -1, -2)), -1, -2)
        if np.any(self.total_power > 1.0 + 1e-9):
            raise ValueError(f"total power {self.total_power} exceeds 1")

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, n: int, k: int) -> "Precoder":
        stacked = np.asarray(stacked, dtype=complex)
        return cls(np.swapaxes(stacked.reshape(stacked.shape[:-1] + (k, n)),
                               -1, -2))

    @property
    def stacked(self) -> np.ndarray:
        """Column-stacked vector [f_1; ...; f_K] of length NK (per lane)."""
        return np.swapaxes(self.matrix, -1, -2).reshape(
            self.matrix.shape[:-2] + (-1,))

    @property
    def total_power(self):
        """float, or one value per lane."""
        return _lanes_out(np.sum(np.abs(self.matrix) ** 2, axis=(-2, -1)))


@dataclass
class PhaseShifts:
    """Per-RIS phase vectors, shape (..., L, M); ``projected`` marks unit modulus."""

    per_ris: np.ndarray
    projected: bool = False

    def __post_init__(self):
        self.per_ris = np.ascontiguousarray(self.per_ris, dtype=complex)
        if self.per_ris.ndim < 2:
            raise ValueError("per_ris must be (L, M)")
        if self.projected:
            if np.max(np.abs(np.abs(self.per_ris) - 1.0)) > 1e-12:
                raise ValueError("projected phase shifts must be unit modulus")

    @classmethod
    def from_stacked(cls, stacked: np.ndarray, l: int, m: int,
                     projected: bool = False) -> "PhaseShifts":
        stacked = np.asarray(stacked, dtype=complex)
        return cls(stacked.reshape(stacked.shape[:-1] + (l, m)), projected)

    @classmethod
    def from_normalized(cls, w: np.ndarray, l: int, m: int) -> "PhaseShifts":
        """Undo the 1/sqrt(LM) normalization of a relaxed vector w."""
        return cls.from_stacked(np.sqrt(l * m) * np.asarray(w), l, m)

    @property
    def stacked(self) -> np.ndarray:
        return self.per_ris.reshape(self.per_ris.shape[:-2] + (-1,))

    @property
    def normalized(self) -> np.ndarray:
        """w = stacked / sqrt(LM); unit norm whenever projected."""
        l, m = self.per_ris.shape[-2:]
        return self.stacked / np.sqrt(l * m)

    def project(self) -> "PhaseShifts":
        """Nearest unit-modulus configuration e^{j arg(.)}."""
        return PhaseShifts(exact_unit_modulus(np.angle(self.per_ris)),
                           projected=True)


NOT_UNIT_MODULUS = "could not renormalize phases to unit modulus"

# (re, im) rows of the -2..+2 ulp ladder, in order of increasing perturbation
_ULP_STEPS = np.array(sorted(np.ndindex(5, 5), key=lambda s: (
    abs(s[0] - 2) + abs(s[1] - 2), s))[1:])


def exact_unit_modulus(angles: np.ndarray) -> np.ndarray:
    """e^{j angle} with every modulus exactly 1.0 in float64.

    np.exp(1j*t) can land one ulp off the unit circle; renormalizing the
    stragglers by their own modulus pulls them onto it exactly.
    """
    z = np.exp(1j * np.asarray(angles, dtype=float))
    idx = np.flatnonzero(np.abs(z) != 1.0)
    if idx.size == 0:
        return z
    # for a float64 component pair a step of at most 2 ulps in each
    # coordinate always reaches a representable point with |.| == 1.0;
    # each straggler takes the first such candidate in _ULP_STEPS order
    shape = z.shape
    re, im = z.real.flatten(), z.imag.flatten()
    ladder = np.empty((5, idx.size), dtype=complex)
    rungs = ladder.view(float)  # both coordinates step together
    rungs[2] = z.ravel()[idx].view(float)
    np.nextafter(rungs[2], np.inf, out=rungs[3])
    np.nextafter(rungs[3], np.inf, out=rungs[4])
    np.nextafter(rungs[2], -np.inf, out=rungs[1])
    np.nextafter(rungs[1], -np.inf, out=rungs[0])
    cand = np.empty((len(_ULP_STEPS), idx.size), dtype=complex)
    cand.real = ladder.real[_ULP_STEPS[:, 0]]
    cand.imag = ladder.imag[_ULP_STEPS[:, 1]]
    good = np.abs(cand) == 1.0
    cols = np.arange(idx.size)
    first = good.argmax(axis=0)
    if not good[first, cols].all():
        raise FloatingPointError(NOT_UNIT_MODULUS)
    pick = cand[first, cols]
    re[idx] = pick.real
    im[idx] = pick.imag
    return (re + 1j * im).reshape(shape)


def effective_channels(cascaded: np.ndarray | ChannelEstimate,
                       phases: PhaseShifts) -> np.ndarray:
    """h_k = sum_l H^r_{k,l} phi_l for every user, shape (..., K, N).

    ``cascaded`` is the (K, L, N, M) array, or an estimate, whose stacked
    copy is then formed once and reused.
    """
    # one (KN x LM) matrix-vector product per lane
    if isinstance(cascaded, ChannelEstimate):
        k, l, n, m = cascaded.cascaded_est.shape
        stack = cascaded.stacked
    else:
        k, l, n, m = cascaded.shape
        stack = cascaded.transpose(0, 2, 1, 3).reshape(k * n, l * m)
    phi = phases.per_ris
    x = phi.reshape(phi.shape[:-2] + (l * m, 1))
    h = np.empty(phi.shape[:-2] + (k * n, 1), dtype=complex)
    # OpenBLAS runs a zgemv of rows * LM >= 4096 entries on its thread pool,
    # whose threads then spin on a core each at every call: in row blocks
    # below that it stays on the calling thread.  Its kernel takes rows four
    # at a time, and each row's sum runs the same way in any block of a
    # multiple of four rows, so the blocks change no bit
    rows = max(4, (4095 // (l * m)) // 4 * 4)
    for r in range(0, k * n, rows):
        np.matmul(stack[r:r + rows], x, out=h[..., r:r + rows, :])
    return h.reshape(phi.shape[:-2] + (k, n))


def _lanes_out(x):
    """A Python float for an unbatched result, the per-lane array otherwise."""
    return float(x) if np.ndim(x) == 0 else x


def block_quad_forms(blocks: np.ndarray, f: np.ndarray) -> np.ndarray:
    """sum_i f_i^H B_k f_i for every k; blocks (..., K, N, N), f (..., N, K).

    The K blocks are stacked into one KN x N matrix, so each lane costs a
    single matmul.
    """
    k, n = blocks.shape[-3], blocks.shape[-1]
    lanes = np.broadcast_shapes(blocks.shape[:-3], f.shape[:-2])
    bf = (blocks.reshape(blocks.shape[:-3] + (k * n, n)) @ f).reshape(
        lanes + (k, n, f.shape[-1]))
    return _sum_quad_forms(f, bf)


def _sum_quad_forms(f: np.ndarray, bf: np.ndarray) -> np.ndarray:
    """sum_i f_i^H (B_k F)_i from the C-ordered (..., K, N, K) products B_k F."""
    return np.sum(np.conj(f)[..., None, :, :] * bf, axis=(-2, -1)).real


def add_to_diagonal(blocks: np.ndarray, values: np.ndarray) -> None:
    """blocks[..., i, i] += values[...] in place, for C-contiguous square
    (..., M, M) blocks, through a strided view of their diagonals."""
    m = blocks.shape[-1]
    diag = blocks.reshape(blocks.shape[:-2] + (m * m,))[..., ::m + 1]
    diag += values[..., None]


def _sum_se_from_channels(h: np.ndarray, f: np.ndarray, extra_noise: np.ndarray,
                          noise_over_p: float):
    """Sum of log2(1 + SINR_k); h is (..., K, N), f is (..., N, K), extra_noise (..., K)."""
    g = np.abs(h.conj() @ f) ** 2  # g[k, i] = |h_k^H f_i|^2
    signal = np.diagonal(g, axis1=-2, axis2=-1)
    interference = g.sum(axis=-1) - signal
    sinr = signal / (interference + extra_noise + noise_over_p)
    return _lanes_out(np.sum(np.log2(1.0 + sinr), axis=-1))


def exact_sum_se(cascaded: np.ndarray, precoder: Precoder, phases: PhaseShifts,
                 noise_over_p: float) -> float:
    """Sum SE on the given (true or estimated) cascaded channels."""
    h = effective_channels(cascaded, phases)
    k = h.shape[-2]
    return _sum_se_from_channels(h, precoder.matrix, np.zeros(k), noise_over_p)


def xi_matrices(est: ChannelEstimate, phases: PhaseShifts) -> np.ndarray:
    """Xi_k = sum_l (phi_l^T kron I_N) R^e_{k,l} (phi_l^T kron I_N)^H, shape (..., K, N, N)."""
    n, k, l, m = est.dims
    phi = phases.per_ris
    if est.is_isotropic:
        return xi_scales(est, phases)[..., None, None] * np.eye(n)
    xi = np.zeros(phi.shape[:-2] + (k, n, n), dtype=complex)
    for ki in range(k):
        for li in range(l):
            r4 = est.err_dense[ki][li].reshape(m, n, m, n)
            xi[..., ki, :, :] += np.einsum("...a,anbp,...b->...np", phi[..., li, :],
                                           r4, phi[..., li, :].conj())
    return xi


def xi_scales(est: ChannelEstimate, phases: PhaseShifts) -> np.ndarray:
    """Isotropic errors only: the xi_k of Xi_k = xi_k I_N, shape (..., K)."""
    return np.einsum("kl,...l->...k", est.err_scale,
                     np.sum(np.abs(phases.per_ris) ** 2, axis=-1))


def theta_scales(est: ChannelEstimate, precoder: Precoder) -> np.ndarray:
    """Isotropic errors only: the theta_{k,l} of Theta_{k,l} = theta_{k,l}
    I_M, shape (..., K, L)."""
    total_power = np.sum(np.abs(precoder.matrix) ** 2, axis=(-2, -1))
    return est.err_scale * total_power[..., None, None]


def theta_matrices(est: ChannelEstimate, precoder: Precoder) -> np.ndarray:
    """Theta_{k,l} = sum_i (f_i^T kron I_M) P (R^e)^* P^T (...)^H, shape (..., K, L, M, M)."""
    n, k, l, m = est.dims
    f = precoder.matrix
    if est.is_isotropic:
        return theta_scales(est, precoder)[..., None, None] * np.eye(m)
    theta = np.zeros(f.shape[:-2] + (k, l, m, m), dtype=complex)
    for ki in range(k):
        for li in range(l):
            r4c = est.err_dense[ki][li].conj().reshape(m, n, m, n)
            for i in range(f.shape[-1]):
                theta[..., ki, li, :, :] += np.einsum(
                    "...n,anbq,...q->...ab", f[..., :, i], r4c, f[..., :, i].conj())
    return theta


def lower_bound_sum_se(est: ChannelEstimate, precoder: Precoder,
                       phases: PhaseShifts, noise_over_p: float):
    """Jensen lower bound on the sum instantaneous SE, precoder-quadratic form.

    A float, or one value per lane when the pair carries a lane axis.
    """
    h_hat = effective_channels(est, phases)
    f = precoder.matrix
    if est.is_isotropic:
        # Xi_k F = xi_k F, written C-ordered as the matmul of block_quad_forms
        # returns it: in F's column-major layout the sum would round
        # differently
        xi = xi_scales(est, phases)
        lanes = np.broadcast_shapes(xi.shape[:-1], f.shape[:-2])
        xi_f = np.empty(lanes + xi.shape[-1:] + f.shape[-2:], dtype=complex)
        np.multiply(xi[..., None, None], f[..., None, :, :], out=xi_f)
        extra = _sum_quad_forms(f, xi_f)
    else:
        extra = block_quad_forms(xi_matrices(est, phases), f)
    return _sum_se_from_channels(h_hat, f, extra, noise_over_p)


def lower_bound_phase_form(est: ChannelEstimate, precoder: Precoder,
                           phases: PhaseShifts, noise_over_p: float) -> float:
    """Same bound via the phase-quadratic Theta form; equals the Xi form."""
    h_hat = effective_channels(est, phases)
    theta = theta_matrices(est, precoder)
    phi = phases.per_ris
    extra = np.einsum("la,klab,lb->k", phi.conj(), theta, phi).real
    return _sum_se_from_channels(h_hat, precoder.matrix, extra, noise_over_p)


def commutation_matrix(n: int, m: int) -> np.ndarray:
    """0/1 matrix P with P vec(E) = vec(E^T) for every n x m matrix E.

    Column-major vectorization: vec(E)[i + n*j] = E[i, j].
    """
    if n < 1 or m < 1:
        raise ValueError("dimensions must be >= 1")
    p = np.zeros((n * m, n * m))
    for i in range(n):
        for j in range(m):
            p[j + m * i, i + n * j] = 1.0
    return p


def nmse_unit_modulus(w: np.ndarray):
    """||sqrt(LM)|w| - 1||^2 / LM: distance of a relaxed vector from unit modulus.

    w is (..., LM); a float, or one value per lane.
    """
    w = np.asarray(w)
    if np.any(np.all(w == 0, axis=-1)):
        raise ValueError("zero vector has no modulus profile")
    lm = w.shape[-1]
    dev = np.sqrt(lm) * np.abs(w) - 1.0
    return _lanes_out(np.sum(dev**2, axis=-1) / lm)


def mc_instantaneous_se(est: ChannelEstimate, precoder: Precoder,
                        phases: PhaseShifts, noise_over_p: float,
                        n_draws: int, rng: np.random.Generator
                        ) -> tuple[float, float]:
    """Monte Carlo mean and standard error of the SE over error draws.

    Each draw evaluates the exact sum SE on H^r = hat(H)^r + E with
    E ~ CN(0, R^e) per link.
    """
    if n_draws < 1:
        raise ValueError("n_draws must be >= 1")
    n, k, l, m = est.dims
    f = precoder.matrix
    phi = phases.per_ris
    values = np.empty(n_draws)
    if est.is_isotropic:
        std = np.sqrt(np.maximum(est.err_scale, 0.0))
        batch = max(1, min(n_draws, int(2e6 / max(k * l * n * m, 1))))
        done = 0
        while done < n_draws:
            b = min(batch, n_draws - done)
            e = std[None, :, :, None, None] * _cn_vector((b, k, l, n, m), rng)
            h = np.einsum("dklnm,lm->dkn", est.cascaded_est[None] + e, phi)
            values[done:done + b] = _sum_se_from_channels(h, f, np.zeros(k),
                                                          noise_over_p)
            done += b
    else:
        chols = [[_psd_factor(est.err_dense[ki][li]) for li in range(l)]
                 for ki in range(k)]
        for d in range(n_draws):
            h_true = est.cascaded_est.copy()
            for ki in range(k):
                for li in range(l):
                    e_vec = chols[ki][li] @ _cn_vector(n * m, rng)
                    h_true[ki, li] += e_vec.reshape((n, m), order="F")
            ph = PhaseShifts(phi)
            values[d] = exact_sum_se(h_true, precoder, ph, noise_over_p)
    mean = float(values.mean())
    stderr = float(values.std(ddof=1) / np.sqrt(n_draws)) if n_draws > 1 else 0.0
    return mean, stderr

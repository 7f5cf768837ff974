"""Saleh-Valenzuela channel synthesis, cascading, and LMMSE estimation.

Vectorization is column-major everywhere: vec(X) of an N x M matrix has entry
n + N*m, and reshape uses order='F'.  The error covariance of the cascaded
channel estimate is (C^-1 + T*rho/(gamma*sigma^2) I)^-1; under the isotropic
prior C = gamma*I that the estimator assumes it is a scalar multiple of I, so
each link carries one error scale.

A realization is synthesized in two phases.  The draw phase walks the links
in stream order (the L BS-RIS links, then the K*L RIS-user links, users
outer) and writes each link's shadowing normal, its path angles' uniforms
on [0, 1) (one ``random`` call per link, the angles in turn) and its fading
normals into preallocated arrays.  The array phase then scales every angle
as low + (high - low) * u, which is what ``Generator.uniform`` computes
from the same doubles, and forms every steering vector, path sum and
cascade for all links in one broadcast pass.  The draws stay in a per-link
loop because the stream interleaves normals and uniforms link by link, and
ziggurat normals consume a variable number of words: no bulk draw
reproduces that interleaving, so bulk draws would change every realization.
The steering, synthesis and cascade helpers take leading batch axes and keep
each entry's operation order (and the path sum accumulates from zeros in
path order), so the array phase gives the same channels bit for bit as
forming the links one at a time.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .scenario import Scenario, path_gain_linear, place_users


def steering_ula(n: int, spacing_ratio: float, angle) -> np.ndarray:
    """ULA steering vector, element i = exp(j*2*pi*i*ratio*sin(angle)).

    ``angle`` may carry leading batch axes; the result has shape
    ``np.shape(angle) + (n,)``.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    return np.exp(2j * np.pi * idx * spacing_ratio * np.sin(angle)[..., None])


def steering_upa(
    m_y: int,
    m_z: int,
    ratio_y: float,
    ratio_z: float,
    azimuth,
    elevation,
) -> np.ndarray:
    """UPA steering vector a_y kron a_z of length m_y*m_z.

    ``azimuth`` and ``elevation`` may carry leading batch axes, which
    broadcast; the Kronecker product is taken along the last axis.
    """
    if m_y < 1 or m_z < 1:
        raise ValueError("array dimensions must be >= 1")
    iy = np.arange(m_y)
    iz = np.arange(m_z)
    a_y = np.exp(2j * np.pi * iy * ratio_y * np.sin(azimuth)[..., None]
                 * np.sin(elevation)[..., None])
    a_z = np.exp(2j * np.pi * iz * ratio_z * np.cos(elevation)[..., None])
    kron = a_y[..., :, None] * a_z[..., None, :]
    return kron.reshape(kron.shape[:-2] + (m_y * m_z,))


def synth_bs_ris(
    n: int,
    m_y: int,
    m_z: int,
    ratios: tuple[float, float, float],
    gain,
    angles: np.ndarray,
) -> np.ndarray:
    """SV BS-RIS channel (1/sqrt(Lp)) * sum_i sqrt(gain) a_B a_R^H, shape N x M.

    ``angles`` holds (BS AoD, RIS azimuth, RIS elevation) per path, shape
    (..., Lp, 3); ``gain`` broadcasts against its leading axes, and the
    result has shape (..., N, M).
    """
    gain = np.asarray(gain, dtype=float)
    if (gain < 0).any():
        raise ValueError("gain must be >= 0")
    angles = np.atleast_2d(angles)
    n_paths = angles.shape[-2]
    if n_paths == 0:
        raise ValueError("at least one path required")
    a_b = steering_ula(n, ratios[0], angles[..., 0])
    a_r = steering_upa(m_y, m_z, ratios[1], ratios[2], angles[..., 1],
                       angles[..., 2])
    terms = np.sqrt(gain)[..., None, None, None] * (
        a_b[..., :, None] * a_r.conj()[..., None, :])
    return _path_sum(terms, axis=-3)


def synth_ris_user(
    m_y: int,
    m_z: int,
    ratios: tuple[float, float, float],
    gain,
    angles: np.ndarray,
    fading: np.ndarray,
) -> np.ndarray:
    """SV RIS-user channel (1/sqrt(Lp)) * sum_i sqrt(gain) alpha_i a_R, length M.

    ``angles`` holds (azimuth, elevation) per path, shape (..., Lp, 2), and
    ``fading`` the CN(0,1) small-scale coefficients, shape (..., Lp) (pass a
    repeated scalar for the literal one-per-link reading).  Leading axes of
    ``gain``, ``angles`` and ``fading`` broadcast; the result has shape
    (..., M).
    """
    gain = np.asarray(gain, dtype=float)
    if (gain < 0).any():
        raise ValueError("gain must be >= 0")
    angles = np.atleast_2d(angles)
    fading = np.atleast_1d(fading)
    n_paths = angles.shape[-2]
    if n_paths == 0:
        raise ValueError("at least one path required")
    if fading.shape[-1] != n_paths:
        raise ValueError(f"angles hold {n_paths} paths, fading "
                         f"{fading.shape[-1]}")
    a_r = steering_upa(m_y, m_z, ratios[1], ratios[2], angles[..., 0],
                       angles[..., 1])
    terms = (np.sqrt(gain)[..., None] * fading)[..., None] * a_r
    return _path_sum(terms, axis=-2)


def _path_sum(terms: np.ndarray, axis: int) -> np.ndarray:
    """(1/sqrt(Lp)) * sum over the (negative) path ``axis``, accumulated from
    zeros in path order so every entry rounds as a per-path ``h += term``
    loop does.

    numpy divides a complex by a real c as (re, im) * fl(1/c) (Smith's
    method with a zero imaginary part), so scaling by the rounded
    reciprocal gives the quotient h / sqrt(Lp) without the slow division.
    """
    n_paths = terms.shape[axis]
    h = np.zeros(terms.shape[:axis] + terms.shape[axis + 1:], dtype=complex)
    trailing = (slice(None),) * (-axis - 1)
    for i in range(n_paths):
        h += terms[(Ellipsis, i, *trailing)]
    h *= 1.0 / np.sqrt(n_paths)
    return h


def cascade(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Cascaded channel H1 * diag(h2): column m of h1 scaled by h2[m].

    h1 (..., N, M) and h2 (..., M) broadcast over their leading axes.
    """
    if h1.ndim < 2 or h2.ndim < 1 or h1.shape[-1] != h2.shape[-1]:
        raise ValueError(f"shape mismatch: {h1.shape} vs {h2.shape}")
    return h1 * h2[..., np.newaxis, :]


@dataclass
class ChannelSet:
    """True channels for one realization.

    bs_ris: (L, N, M); ris_user: (K, L, M); cascaded: (K, L, N, M);
    gamma1: (L,); gamma2: (K, L); gamma = gamma1*gamma2: (K, L).
    """

    bs_ris: np.ndarray
    ris_user: np.ndarray
    cascaded: np.ndarray
    gamma1: np.ndarray
    gamma2: np.ndarray

    @property
    def gamma(self) -> np.ndarray:
        return self.gamma1[np.newaxis, :] * self.gamma2

    @property
    def dims(self) -> tuple[int, int, int, int]:
        k, l, n, m = self.cascaded.shape
        return n, k, l, m


def synthesize_channels(scenario: Scenario, rng: np.random.Generator) -> ChannelSet:
    """Draw one full channel realization for the scenario."""
    cfg = scenario.config
    geo = scenario.geometry
    pl = scenario.pathloss
    n, k, l = cfg.n_bs_antennas, cfg.n_users, cfg.n_ris
    my, mz = cfg.ris_elems_y, cfg.ris_elems_z
    p1, p2 = cfg.n_paths_bs_ris, cfg.n_paths_ris_user
    bs = np.asarray(geo.bs_position, dtype=float)
    ris_pos = np.asarray(geo.ris_positions, dtype=float)
    users = place_users(geo, k, rng)
    d1 = _norms(ris_pos - bs)
    d2 = _norms(ris_pos[np.newaxis, :, :] - users[:, np.newaxis, :])

    # draw phase: every link's draws in stream order, its path angles as
    # one block of uniforms on [0, 1), one row per angle
    gamma1 = np.empty(l)
    u1 = np.empty((l, 3, p1))
    for li in range(l):
        gamma1[li] = path_gain_linear(pl, d1[li], rng.standard_normal())
        rng.random(out=u1[li])

    gamma2 = np.empty((k, l))
    u2 = np.empty((k, l, 2, p2))
    normals = np.empty((k, l, 2, p2))
    for ki in range(k):
        for li in range(l):
            gamma2[ki, li] = path_gain_linear(pl, d2[ki][li], rng.standard_normal())
            rng.random(out=u2[ki, li])
            rng.standard_normal(out=normals[ki, li])  # real parts, then imaginary

    # array phase: all links at once (the angles as Generator.uniform forms
    # them, the fading as _cn_vector does)
    angles1 = _uniform(u1)
    angles2 = _uniform(u2)
    fading = (normals[:, :, 0] + 1j * normals[:, :, 1]) / np.sqrt(2)
    ratios = cfg.carrier_spacing_ratios
    bs_ris = synth_bs_ris(n, my, mz, ratios, gamma1, angles1)
    ris_user = synth_ris_user(my, mz, ratios, gamma2, angles2, fading)
    cascaded = cascade(bs_ris, ris_user)
    return ChannelSet(bs_ris, ris_user, cascaded, gamma1, gamma2)


# the bounds of the path angles, one row each: BS AoD, RIS azimuth and RIS
# elevation; a BS-RIS path has all three, a RIS-user path the last two
_ANGLE_LOW = np.array([[0.0], [-np.pi], [-np.pi / 2]])
_ANGLE_SCALE = np.array([[np.pi], [np.pi], [np.pi / 2]]) - _ANGLE_LOW


def _uniform(u: np.ndarray) -> np.ndarray:
    """Angles low + (high - low) * u, as Generator.uniform computes them from
    its doubles, u's rows (axis -2) the last of the angles above; returned
    with that axis last, (..., paths, angles)."""
    n = u.shape[-2]
    return np.moveaxis(_ANGLE_LOW[-n:] + _ANGLE_SCALE[-n:] * u, -2, -1)


def _norms(x: np.ndarray) -> list:
    """Euclidean norms along the last axis, as nested floats.

    Each is the dot product np.linalg.norm takes, so the distances (and the
    path gains) are the ones a per-link np.linalg.norm gives.
    """
    return np.sqrt(np.matmul(x[..., None, :], x[..., :, None])[..., 0, 0]).tolist()


def _cn_vector(size, rng: np.random.Generator) -> np.ndarray:
    """CN(0, 1) entries: the real parts of all, then the imaginary ones,
    drawn as one block.  numpy divides a complex by sqrt(2) as (re, im) *
    fl(1/sqrt(2)), so scaling the normals by it rounds the same."""
    shape = (size,) if np.ndim(size) == 0 else tuple(size)
    normals = rng.standard_normal((2,) + shape)
    normals *= 1.0 / np.sqrt(2)
    z = np.empty(normals.shape[1:], dtype=complex)
    z.real, z.imag = normals
    return z


def error_scale_dft(gamma, t_ul: int, rho_ul_linear: float):
    """DFT-training LMMSE error scale 1/(1/gamma + T*rho/gamma).

    Under the isotropic prior C = gamma*I the error covariance
    (C^-1 + T*rho/gamma I)^-1 is this scale times I; the noise variance is
    1, as the path gains are normalized by the thermal noise.  ``gamma`` is
    a float or an array of gains, one error scale each.
    """
    if rho_ul_linear <= 0:
        raise ValueError("rho_ul_linear must be > 0")
    return 1.0 / (1.0 / gamma + t_ul * rho_ul_linear / gamma)


@dataclass(frozen=True)
class ChannelEstimate:
    """Estimated cascaded channels with error statistics.

    cascaded_est: (K, L, N, M), held as a read-only view, since the two
    transposed copies below are formed from it once per estimate.  The
    per-link NM x NM error covariance is either isotropic (err_scale[k, l] *
    I, err_dense None) or dense (err_dense[k][l]).
    """

    cascaded_est: np.ndarray
    err_scale: np.ndarray | None = None
    err_dense: list[list[np.ndarray]] | None = None

    def __post_init__(self):
        if (self.err_scale is None) == (self.err_dense is None):
            raise ValueError("exactly one of err_scale / err_dense must be set")
        object.__setattr__(self, "cascaded_est", _read_only(self.cascaded_est))

    @cached_property
    def stacked(self) -> np.ndarray:
        """(KN, LM) stack of the estimates: row (k, n), column (l, m)."""
        k, l, n, m = self.cascaded_est.shape
        return _read_only(self.cascaded_est.transpose(0, 2, 1, 3).reshape(
            k * n, l * m))

    @cached_property
    def conj_rows(self) -> np.ndarray:
        """(KLM, N) rows of the Hhat_{k,l}^H: row (k, l, m)."""
        k, l, n, m = self.cascaded_est.shape
        return _read_only(np.conj(np.swapaxes(self.cascaded_est, 2, 3)).reshape(
            k * l * m, n))

    @property
    def is_isotropic(self) -> bool:
        return self.err_scale is not None

    @property
    def dims(self) -> tuple[int, int, int, int]:
        k, l, n, m = self.cascaded_est.shape
        return n, k, l, m


def _read_only(x) -> np.ndarray:
    view = np.asarray(x).view()
    view.flags.writeable = False
    return view


def draw_estimate(truth: ChannelSet, err_scale: np.ndarray,
                  rng: np.random.Generator) -> ChannelEstimate:
    """Draw hat(c) = c - e with e ~ CN(0, err_scale[k, l] * I) per (k, l) link."""
    e = _cn_vector(truth.cascaded.shape, rng)
    e *= np.sqrt(np.maximum(err_scale, 0.0))[:, :, None, None]
    return ChannelEstimate(np.subtract(truth.cascaded, e, out=e),
                           err_scale=err_scale)


def _psd_factor(r: np.ndarray) -> np.ndarray:
    """Cholesky-type factor of a PSD matrix, tolerant of tiny negative eigs."""
    try:
        return np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(r)
        if vals.min() < -1e-8 * max(vals.max(), 1.0):
            raise
        return vecs * np.sqrt(np.clip(vals, 0.0, None))


def estimate_channels(truth: ChannelSet, scenario: Scenario,
                      rng: np.random.Generator) -> ChannelEstimate:
    """LMMSE estimate under the DFT training scheme with prior C = gamma*I."""
    cfg = scenario.config
    err = error_scale_dft(truth.gamma, cfg.ul_train_len,
                          cfg.ul_train_power_linear)
    return draw_estimate(truth, err, rng)

"""Saleh-Valenzuela channel synthesis, cascading, and LMMSE estimation.

Vectorization is column-major everywhere: vec(X) of an N x M matrix has entry
n + N*m, and reshape uses order='F'.  The error covariance of the cascaded
channel estimate is (C^-1 + T*rho/(gamma*sigma^2) I)^-1; with the default
isotropic prior C = gamma*I this collapses to a scalar multiple of I, which we
keep as a scalar fast path alongside the dense route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Scenario, path_gain_linear, noise_power_dbm, place_users


def steering_ula(n: int, spacing_ratio: float, angle: float) -> np.ndarray:
    """ULA steering vector, element i = exp(j*2*pi*i*ratio*sin(angle))."""
    if n < 1:
        raise ValueError("n must be >= 1")
    idx = np.arange(n)
    return np.exp(2j * np.pi * idx * spacing_ratio * np.sin(angle))


def steering_upa(
    m_y: int,
    m_z: int,
    ratio_y: float,
    ratio_z: float,
    azimuth: float,
    elevation: float,
) -> np.ndarray:
    """UPA steering vector a_y kron a_z of length m_y*m_z."""
    if m_y < 1 or m_z < 1:
        raise ValueError("array dimensions must be >= 1")
    iy = np.arange(m_y)
    iz = np.arange(m_z)
    a_y = np.exp(2j * np.pi * iy * ratio_y * np.sin(azimuth) * np.sin(elevation))
    a_z = np.exp(2j * np.pi * iz * ratio_z * np.cos(elevation))
    return np.kron(a_y, a_z)


def draw_bs_ris_angles(n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Per-path (BS AoD, RIS azimuth, RIS elevation), shape (n_paths, 3)."""
    aod = rng.uniform(0.0, np.pi, size=n_paths)
    az = rng.uniform(-np.pi, np.pi, size=n_paths)
    el = rng.uniform(-np.pi / 2, np.pi / 2, size=n_paths)
    return np.stack([aod, az, el], axis=1)


def draw_ris_user_angles(n_paths: int, rng: np.random.Generator) -> np.ndarray:
    """Per-path (azimuth, elevation) at the RIS, shape (n_paths, 2)."""
    az = rng.uniform(-np.pi, np.pi, size=n_paths)
    el = rng.uniform(-np.pi / 2, np.pi / 2, size=n_paths)
    return np.stack([az, el], axis=1)


def synth_bs_ris(
    n: int,
    m_y: int,
    m_z: int,
    ratios: tuple[float, float, float],
    gain: float,
    angles: np.ndarray,
) -> np.ndarray:
    """SV BS-RIS channel (1/sqrt(Lp)) * sum_i sqrt(gain) a_B a_R^H, shape N x M."""
    if gain < 0:
        raise ValueError("gain must be >= 0")
    angles = np.atleast_2d(angles)
    if angles.shape[0] == 0:
        raise ValueError("at least one path required")
    n_paths = angles.shape[0]
    h = np.zeros((n, m_y * m_z), dtype=complex)
    for aod, az, el in angles:
        a_b = steering_ula(n, ratios[0], aod)
        a_r = steering_upa(m_y, m_z, ratios[1], ratios[2], az, el)
        h += np.sqrt(gain) * np.outer(a_b, a_r.conj())
    return h / np.sqrt(n_paths)


def synth_ris_user(
    m_y: int,
    m_z: int,
    ratios: tuple[float, float, float],
    gain: float,
    angles: np.ndarray,
    fading: np.ndarray,
) -> np.ndarray:
    """SV RIS-user channel (1/sqrt(Lp)) * sum_i sqrt(gain) alpha_i a_R, length M.

    ``fading`` holds the CN(0,1) small-scale coefficients, one per path (pass
    a repeated scalar for the literal one-per-link reading).
    """
    if gain < 0:
        raise ValueError("gain must be >= 0")
    angles = np.atleast_2d(angles)
    if angles.shape[0] == 0:
        raise ValueError("at least one path required")
    fading = np.atleast_1d(fading)
    n_paths = angles.shape[0]
    h = np.zeros(m_y * m_z, dtype=complex)
    for (az, el), alpha in zip(angles, fading):
        h += np.sqrt(gain) * alpha * steering_upa(m_y, m_z, ratios[1], ratios[2], az, el)
    return h / np.sqrt(n_paths)


def cascade(h1: np.ndarray, h2: np.ndarray) -> np.ndarray:
    """Cascaded channel H1 * diag(h2): column m of h1 scaled by h2[m]."""
    if h1.ndim != 2 or h2.ndim != 1 or h1.shape[1] != h2.shape[0]:
        raise ValueError(f"shape mismatch: {h1.shape} vs {h2.shape}")
    return h1 * h2[np.newaxis, :]


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
    m = my * mz
    noise_dbm = noise_power_dbm(cfg.bandwidth_hz, cfg.noise_figure_db)
    bs = np.asarray(geo.bs_position, dtype=float)
    ris_pos = np.asarray(geo.ris_positions, dtype=float)
    users = place_users(geo, k, rng)

    gamma1 = np.empty(l)
    bs_ris = np.empty((l, n, m), dtype=complex)
    for li in range(l):
        d = float(np.linalg.norm(ris_pos[li] - bs))
        gamma1[li] = path_gain_linear(pl, d, rng.standard_normal(), noise_dbm)
        angles = draw_bs_ris_angles(cfg.n_paths_bs_ris, rng)
        bs_ris[li] = synth_bs_ris(n, my, mz, cfg.carrier_spacing_ratios,
                                  gamma1[li], angles)

    gamma2 = np.empty((k, l))
    ris_user = np.empty((k, l, m), dtype=complex)
    for ki in range(k):
        for li in range(l):
            d = float(np.linalg.norm(ris_pos[li] - users[ki]))
            gamma2[ki, li] = path_gain_linear(pl, d, rng.standard_normal(), noise_dbm)
            angles = draw_ris_user_angles(cfg.n_paths_ris_user, rng)
            fading = _cn_vector(cfg.n_paths_ris_user, rng)
            ris_user[ki, li] = synth_ris_user(my, mz, cfg.carrier_spacing_ratios,
                                              gamma2[ki, li], angles, fading)

    cascaded = np.empty((k, l, n, m), dtype=complex)
    for ki in range(k):
        for li in range(l):
            cascaded[ki, li] = cascade(bs_ris[li], ris_user[ki, li])
    return ChannelSet(bs_ris, ris_user, cascaded, gamma1, gamma2)


def _cn_vector(size, rng: np.random.Generator) -> np.ndarray:
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


def error_covariance_dft(
    prior_cov: np.ndarray,
    t_ul: int,
    rho_ul_linear: float,
    gamma: float,
    sigma2: float = 1.0,
) -> np.ndarray:
    """DFT-training LMMSE error covariance (C^-1 + T*rho/(gamma*sigma^2) I)^-1."""
    if rho_ul_linear <= 0:
        raise ValueError("rho_ul_linear must be > 0")
    dim = prior_cov.shape[0]
    scale = t_ul * rho_ul_linear / (gamma * sigma2)
    try:
        c_inv = np.linalg.inv(prior_cov)
    except np.linalg.LinAlgError as exc:
        cond = np.linalg.cond(prior_cov)
        raise np.linalg.LinAlgError(
            f"prior covariance is singular (cond={cond:.3e})"
        ) from exc
    r = np.linalg.inv(c_inv + scale * np.eye(dim))
    return 0.5 * (r + r.conj().T)


def error_scale_dft(gamma: float, t_ul: int, rho_ul_linear: float,
                    sigma2: float = 1.0) -> float:
    """Isotropic fast path of error_covariance_dft for C = gamma*I."""
    if rho_ul_linear <= 0:
        raise ValueError("rho_ul_linear must be > 0")
    return 1.0 / (1.0 / gamma + t_ul * rho_ul_linear / (gamma * sigma2))


@dataclass
class ChannelEstimate:
    """Estimated cascaded channels with error statistics.

    cascaded_est: (K, L, N, M).  The per-link NM x NM error covariance is
    either isotropic (err_scale[k, l] * I, err_dense None) or dense
    (err_dense[k][l]).
    """

    cascaded_est: np.ndarray
    err_scale: np.ndarray | None = None
    err_dense: list[list[np.ndarray]] | None = None

    def __post_init__(self):
        if (self.err_scale is None) == (self.err_dense is None):
            raise ValueError("exactly one of err_scale / err_dense must be set")

    @property
    def is_isotropic(self) -> bool:
        return self.err_scale is not None

    @property
    def dims(self) -> tuple[int, int, int, int]:
        k, l, n, m = self.cascaded_est.shape
        return n, k, l, m

    def error_cov(self, k: int, l: int) -> np.ndarray:
        """Dense NM x NM error covariance of link (k, l)."""
        n, m = self.cascaded_est.shape[2], self.cascaded_est.shape[3]
        if self.is_isotropic:
            return self.err_scale[k, l] * np.eye(n * m, dtype=complex)
        return self.err_dense[k][l]


def perfect_estimate(truth: ChannelSet) -> ChannelEstimate:
    """Zero-error estimate (R^e = 0), useful as a limit case."""
    k, l = truth.cascaded.shape[:2]
    return ChannelEstimate(truth.cascaded.copy(), err_scale=np.zeros((k, l)))


def draw_estimate(truth: ChannelSet, err_scale: np.ndarray | None,
                  rng: np.random.Generator,
                  err_dense: list[list[np.ndarray]] | None = None) -> ChannelEstimate:
    """Draw hat(c) = c - e with e ~ CN(0, R^e) per (k, l) link."""
    k, l, n, m = truth.cascaded.shape
    est = np.empty_like(truth.cascaded)
    if err_scale is not None:
        e = np.sqrt(np.maximum(err_scale, 0.0))[:, :, None, None] * _cn_vector(
            (k, l, n, m), rng)
        est = truth.cascaded - e
    else:
        for ki in range(k):
            for li in range(l):
                r = err_dense[ki][li]
                try:
                    chol = _psd_factor(r)
                except np.linalg.LinAlgError as exc:
                    raise np.linalg.LinAlgError(
                        f"error covariance factorization failed at (k={ki}, l={li})"
                    ) from exc
                e_vec = chol @ _cn_vector(n * m, rng)
                est[ki, li] = truth.cascaded[ki, li] - e_vec.reshape((n, m), order="F")
    return ChannelEstimate(est, err_scale=err_scale, err_dense=err_dense)


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
    gamma = truth.gamma
    err = np.empty_like(gamma)
    for idx, g in np.ndenumerate(gamma):
        err[idx] = error_scale_dft(g, cfg.ul_train_len, cfg.ul_train_power_linear,
                                   cfg.noise_variance)
    return draw_estimate(truth, err, rng)

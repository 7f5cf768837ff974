"""Reference schemes: regularized zero-forcing precoding and random phases."""

from __future__ import annotations

import numpy as np

from .metrics import PhaseShifts, Precoder, exact_unit_modulus

def rzf_regularizer(k: int, noise_over_p: float) -> float:
    """MMSE-style loading K * sigma^2 / P for the sum-power constraint."""
    return k * noise_over_p


def rzf_precoder(h_hat: np.ndarray, reg: float) -> Precoder:
    """F proportional to (H H^H + reg I)^-1 H, scaled to unit total power.

    ``h_hat`` holds the K estimated effective channels as rows (K, N).
    """
    if reg <= 0:
        raise ValueError("reg must be > 0")
    h = np.asarray(h_hat, dtype=complex).T  # N x K, columns are channels
    n = h.shape[0]
    f = np.linalg.solve(h @ h.conj().T + reg * np.eye(n), h)
    f = f / np.linalg.norm(f)
    return Precoder(f)


def random_phases(l: int, m: int, rng: np.random.Generator) -> PhaseShifts:
    """Each element e^{j theta} with theta uniform on [0, 2 pi)."""
    theta = rng.uniform(0.0, 2.0 * np.pi, size=(l, m))
    return PhaseShifts(exact_unit_modulus(theta), projected=True)

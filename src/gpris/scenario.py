"""System dimensions, network geometry, pathloss and noise scalars.

Every path gain is normalized by the thermal noise, so the noise variance is
1.  The pathloss intercept and the noise power are constants, not settings:
each shifts every cascaded gain by one factor that ``tx_power_dbm`` already
sets (both hops carry it, so 1 dB more of either equals 2 dB less power).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field, fields

import numpy as np


def check_count(name: str, value, minimum: int = 1) -> None:
    """Raise unless ``value`` is an integer >= ``minimum`` (a bool or an
    integral float is not one), naming the field ``name``."""
    if not (isinstance(value, (int, np.integer)) and not isinstance(value, bool)
            and value >= minimum):
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")


def finite_reals(name: str, value, shape: tuple[int, ...] = ()) -> np.ndarray:
    """``value`` as an array of ``shape``, or a ValueError naming the field
    ``name`` unless every entry is a finite real (a bool or a string is not
    one).  NaN passes every range check after it, so this comes first."""
    try:
        arr = np.asarray(value)
    except ValueError:  # a ragged nesting
        arr = None
    if (arr is None or arr.dtype.kind not in "iuf" or arr.shape != shape
            or not np.isfinite(arr).all()):
        raise ValueError(f"{name} must be finite reals of shape {shape}, "
                         f"got {value!r}")
    return arr


def db_to_linear(x_db: float) -> float:
    return 10.0 ** (x_db / 10.0)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power -174 + 10*log10(W) + n_f in dBm."""
    if bandwidth_hz <= 0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


# the paper's intercept alpha, and its noise over W = 1 GHz with a 5 dB figure
PATHLOSS_INTERCEPT_DB = 61.4
NOISE_POWER_DBM = noise_power_dbm(1e9, 5.0)
# bound on |power| in dBm: within it a power and its inverse, in linear
# terms, are positive normal floats
POWER_LIMIT_DBM = 300.0


@dataclass(frozen=True)
class PathlossModel:
    """mmWave pathloss PL(d) = alpha + beta*10*log10(d) + chi with alpha =
    ``PATHLOSS_INTERCEPT_DB`` and chi ~ N(0, shadow_var_db).

    When ``enabled`` is False every path gain is forced to exactly 1 and the
    transmit power is interpreted directly as an SNR P/sigma^2.
    """

    beta_pl: float = 2.0
    shadow_var_db: float = 5.8
    enabled: bool = True

    def __post_init__(self):
        for name in ("beta_pl", "shadow_var_db"):
            if finite_reals(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0")


def pathloss_db(model: PathlossModel, d: float, shadow_draw: float = 0.0) -> float:
    """Pathloss in dB at distance d (meters).

    ``shadow_draw`` is a caller-supplied standard-normal value; the shadowing
    term is shadow_draw * sqrt(shadow_var_db) so realizations stay
    reproducible from one seed.
    """
    if d <= 0:
        raise ValueError(f"distance must be positive, got {d}")
    chi = shadow_draw * math.sqrt(model.shadow_var_db)
    return PATHLOSS_INTERCEPT_DB + model.beta_pl * 10.0 * math.log10(d) + chi


def path_gain_linear(model: PathlossModel, d: float, shadow_draw: float) -> float:
    """Linear large-scale gain 10^(gamma/10), gamma = -(PL(d) + NOISE_POWER_DBM).

    Normalizing against the noise power lets the rest of the pipeline use a
    unit noise variance.  Returns exactly 1 when the model is disabled.
    """
    if not model.enabled:
        return 1.0
    gamma_db = -(pathloss_db(model, d, shadow_draw) + NOISE_POWER_DBM)
    return db_to_linear(gamma_db)


@dataclass(frozen=True)
class Geometry:
    """2D layout: BS at ``bs_position``, users in a disc, RISs at fixed points."""

    bs_position: tuple[float, float] = (0.0, 0.0)
    circle_center_distance: float = 60.0
    user_radius: float = 20.0
    ris_positions: tuple[tuple[float, float], ...] = ((20.0, 20.0), (20.0, -20.0))

    def __post_init__(self):
        for name in ("circle_center_distance", "user_radius"):
            if finite_reals(name, getattr(self, name)) < 0:
                raise ValueError(f"{name} must be >= 0")
        finite_reals("bs_position", self.bs_position, (2,))
        if len(self.ris_positions) < 1:
            raise ValueError("at least one RIS position required")
        finite_reals("ris_positions", self.ris_positions,
                     (len(self.ris_positions), 2))


def default_geometry(n_ris: int) -> Geometry:
    """``Geometry``'s user disc with RIS 1 at (20, 20) m and RIS 2 at (20, -20)
    m; further RISs continue up/down the line x = 20 m at 20 m spacing.  The
    layout rule beyond two RISs is a documented stand-in, not a modeling claim.
    """
    positions = []
    for idx in range(n_ris):
        sign = 1.0 if idx % 2 == 0 else -1.0
        step = 1 + idx // 2
        positions.append((20.0, sign * 20.0 * step))
    return Geometry(ris_positions=tuple(positions))


def place_users(geometry: Geometry, k: int, rng: np.random.Generator) -> np.ndarray:
    """k points uniform in the user disc, shape (k, 2)."""
    if k < 1:
        raise ValueError("k must be >= 1")
    r = geometry.user_radius * np.sqrt(rng.uniform(size=k))
    theta = rng.uniform(0.0, 2.0 * np.pi, size=k)
    center = np.array([geometry.circle_center_distance, 0.0])
    return center + np.stack([r * np.cos(theta), r * np.sin(theta)], axis=1)


@dataclass(frozen=True)
class SystemConfig:
    """Dimensions, powers and seed of one scenario.  The training length
    T = M*K is derived: the error depends on T and rho only through T*rho."""

    n_bs_antennas: int = 16
    n_users: int = 4
    n_ris: int = 2
    ris_elems_y: int = 8
    ris_elems_z: int = 8
    tx_power_dbm: float = 20.0
    carrier_spacing_ratios: tuple[float, float, float] = (0.5, 0.5, 0.5)
    n_paths_bs_ris: int = 2
    n_paths_ris_user: int = 2
    ul_train_power_dbm: float = 0.0
    rng_seed: int = 0

    def __post_init__(self):
        for name in ("n_bs_antennas", "n_users", "n_ris", "ris_elems_y", "ris_elems_z",
                     "n_paths_bs_ris", "n_paths_ris_user"):
            check_count(name, getattr(self, name))
        check_count("rng_seed", self.rng_seed, 0)  # numpy takes it unsigned
        if np.any(finite_reals("carrier_spacing_ratios",
                               self.carrier_spacing_ratios, (3,)) <= 0):
            raise ValueError("carrier_spacing_ratios must be > 0")
        for name in ("tx_power_dbm", "ul_train_power_dbm"):
            value = getattr(self, name)
            if not abs(value) <= POWER_LIMIT_DBM:  # NaN fails it too
                raise ValueError(f"{name} must be within ±{POWER_LIMIT_DBM:g} "
                                 f"dBm, got {value!r}")

    @property
    def m_ris(self) -> int:
        return self.ris_elems_y * self.ris_elems_z

    @property
    def ul_train_len(self) -> int:
        return self.m_ris * self.n_users

    @property
    def noise_over_power(self) -> float:
        """sigma^2 / P with sigma^2 = 1: the path gains are normalized by the
        thermal noise, so P in dBm converts against a unit noise variance."""
        return 1.0 / db_to_linear(self.tx_power_dbm)

    @property
    def ul_train_power_linear(self) -> float:
        return db_to_linear(self.ul_train_power_dbm)


@dataclass(frozen=True)
class Scenario:
    """A ready-to-simulate bundle of config, geometry and pathloss model."""

    config: SystemConfig = field(default_factory=SystemConfig)
    geometry: Geometry | None = None
    pathloss: PathlossModel = field(default_factory=PathlossModel)

    def __post_init__(self):
        if self.geometry is None:
            object.__setattr__(self, "geometry", default_geometry(self.config.n_ris))
        if len(self.geometry.ris_positions) != self.config.n_ris:
            raise ValueError(
                f"geometry has {len(self.geometry.ris_positions)} RIS positions, "
                f"config expects {self.config.n_ris}"
            )


def _build_strict(cls, data: dict, label: str):
    allowed = {f.name for f in fields(cls)}
    unknown = set(data) - allowed
    if unknown:
        raise ValueError(f"unknown {label} keys: {sorted(unknown)}")
    kwargs = dict(data)
    for key in ("carrier_spacing_ratios", "bs_position"):
        if key in kwargs and isinstance(kwargs[key], list):
            kwargs[key] = tuple(kwargs[key])
    if "ris_positions" in kwargs:
        kwargs["ris_positions"] = tuple(tuple(p) for p in kwargs["ris_positions"])
    return cls(**kwargs)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a Scenario from a JSON-style document.

    Top-level keys are SystemConfig fields plus optional ``geometry`` and
    ``pathloss`` sections.  Unknown keys are rejected at every level.
    """
    doc = dict(doc)
    geometry = doc.pop("geometry", None)
    pathloss = doc.pop("pathloss", None)
    config = _build_strict(SystemConfig, doc, "config")
    geo = _build_strict(Geometry, geometry, "geometry") if geometry is not None else None
    pl = _build_strict(PathlossModel, pathloss, "pathloss") if pathloss is not None else PathlossModel()
    return Scenario(config=config, geometry=geo, pathloss=pl)


def load_scenario(path: str) -> Scenario:
    with open(path, "r", encoding="utf-8") as fh:
        return scenario_from_dict(json.load(fh))

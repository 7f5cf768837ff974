import math
import re

import numpy as np
import pytest
from hypothesis import given, strategies as st

from gpris.scenario import (NOISE_POWER_DBM, PATHLOSS_INTERCEPT_DB, Geometry,
                            PathlossModel, Scenario, SystemConfig,
                            db_to_linear, default_geometry,
                            noise_power_dbm, path_gain_linear, pathloss_db,
                            place_users, scenario_from_dict)


class TestPathloss:
    def test_paper_constants(self):
        model = PathlossModel(beta_pl=2.0, shadow_var_db=0.0)
        assert pathloss_db(model, 100.0) == pytest.approx(101.4)

    def test_degenerate_constants(self):
        model = PathlossModel(beta_pl=0.0, shadow_var_db=0.0)
        assert pathloss_db(model, 5.0) == PATHLOSS_INTERCEPT_DB

    def test_formula_oracle(self):
        model = PathlossModel(beta_pl=2.0, shadow_var_db=0.0)
        assert pathloss_db(model, 60.0) == pytest.approx(
            61.4 + 20.0 * math.log10(60.0))

    def test_shadowing_scales_by_std(self):
        model = PathlossModel(beta_pl=0.0, shadow_var_db=4.0)
        assert pathloss_db(model, 1.0, shadow_draw=1.5) == pytest.approx(
            PATHLOSS_INTERCEPT_DB + 3.0)

    def test_nonpositive_distance_rejected(self):
        with pytest.raises(ValueError):
            pathloss_db(PathlossModel(), 0.0)
        with pytest.raises(ValueError):
            pathloss_db(PathlossModel(), -3.0)


class TestNoisePower:
    def test_paper_constants(self):
        assert noise_power_dbm(1e9, 5.0) == pytest.approx(-79.0)
        assert NOISE_POWER_DBM == noise_power_dbm(1e9, 5.0)

    def test_unit_bandwidth(self):
        assert noise_power_dbm(1.0, 0.0) == pytest.approx(-174.0)

    def test_formula_oracle(self):
        assert noise_power_dbm(1e6, 9.0) == pytest.approx(-105.0)

    def test_nonpositive_bandwidth_rejected(self):
        with pytest.raises(ValueError):
            noise_power_dbm(0.0, 5.0)


class TestPathGain:
    def test_disabled_model_gives_one(self):
        model = PathlossModel(enabled=False)
        assert path_gain_linear(model, 100.0, 0.3) == 1.0

    def test_composition_of_pathloss_and_noise(self):
        model = PathlossModel(beta_pl=2.0, shadow_var_db=0.0)
        # PL(100) = 101.4 dB, noise -79 dBm -> gamma = -22.4 dB
        g = path_gain_linear(model, 100.0, 0.0)
        assert g == pytest.approx(10 ** (-2.24))

    def test_zero_exponent(self):
        model = PathlossModel(beta_pl=0.0, shadow_var_db=0.0)
        assert path_gain_linear(model, 1.0, 0.0) == pytest.approx(
            db_to_linear(-(PATHLOSS_INTERCEPT_DB + NOISE_POWER_DBM)))


class TestPlaceUsers:
    def test_zero_radius_collapses_to_center(self, rng):
        geo = Geometry(circle_center_distance=60.0, user_radius=0.0)
        pts = place_users(geo, 5, rng)
        assert np.allclose(pts, [60.0, 0.0])

    def test_deterministic_under_fixed_seed(self):
        geo = Geometry()
        a = place_users(geo, 7, np.random.default_rng(3))
        b = place_users(geo, 7, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_uniform_disc_mean(self):
        geo = Geometry(circle_center_distance=60.0, user_radius=20.0)
        pts = place_users(geo, 10_000, np.random.default_rng(0))
        mean = pts.mean(axis=0)
        assert np.linalg.norm(mean - [60.0, 0.0]) < 0.05 * geo.user_radius

    def test_all_points_inside_disc(self, rng):
        geo = Geometry(circle_center_distance=10.0, user_radius=4.0)
        pts = place_users(geo, 500, rng)
        d = np.linalg.norm(pts - [10.0, 0.0], axis=1)
        assert np.all(d <= geo.user_radius + 1e-12)


def linear_to_db(x: float) -> float:
    return 10.0 * math.log10(x)


@given(st.floats(min_value=1e-6, max_value=1e12))
def test_db_linear_round_trip(x):
    assert db_to_linear(linear_to_db(x)) == pytest.approx(x, rel=1e-12)


def test_default_paper_scenario_constructible():
    cfg = SystemConfig(n_bs_antennas=16, n_users=4, n_ris=2,
                       ris_elems_y=8, ris_elems_z=8,
                       carrier_spacing_ratios=(0.5, 0.5, 0.5),
                       n_paths_bs_ris=2, n_paths_ris_user=2)
    geo = default_geometry(2)
    scn = Scenario(config=cfg, geometry=geo)
    assert cfg.m_ris == 64
    assert scn.geometry.ris_positions == ((20.0, 20.0), (20.0, -20.0))
    assert (geo.circle_center_distance, geo.user_radius) == (60.0, 20.0)
    assert cfg.ul_train_len == 64 * 4  # the minimum M*K


class TestSystemConfigInvariants:
    def test_train_length_floor_enforced(self):
        # T = M*K is derived, so no config can train with fewer pilots
        with pytest.raises(TypeError, match="ul_train_len"):
            SystemConfig(n_users=4, ris_elems_y=4, ris_elems_z=4, ul_train_len=10)
        cfg = SystemConfig(n_users=3, ris_elems_y=2, ris_elems_z=5)
        assert cfg.ul_train_len == 2 * 5 * 3
        with pytest.raises(AttributeError):
            cfg.ul_train_len = 10

    def test_positive_dimensions(self):
        for name in ("n_bs_antennas", "n_users", "n_ris", "ris_elems_y"):
            with pytest.raises(ValueError):
                SystemConfig(**{name: 0})

    @pytest.mark.parametrize("name,value", [
        ("n_users", 2.5), ("n_bs_antennas", 4.5), ("rng_seed", 1.5),
        ("ris_elems_y", 2.0), ("n_paths_ris_user", True), ("rng_seed", -1),
        ("n_ris", np.float64(2.0))])
    def test_counts_must_be_integers(self, name, value):
        # a fractional count used to load and fail mid-run (or run quietly)
        with pytest.raises(ValueError, match=rf"{name} must be an integer "
                                             rf".*got {re.escape(repr(value))}"):
            SystemConfig(**{name: value})
        with pytest.raises(ValueError, match=name):
            scenario_from_dict({name: value})
        assert SystemConfig(**{name: np.int64(2)}).m_ris >= 1

    def test_spacing_ratios_positive(self):
        with pytest.raises(ValueError):
            SystemConfig(carrier_spacing_ratios=(0.5, -0.5, 0.5))

    def test_noise_over_power(self):
        cfg = SystemConfig(tx_power_dbm=20.0)
        assert cfg.noise_over_power == pytest.approx(0.01)

    @pytest.mark.parametrize("name", ["tx_power_dbm", "ul_train_power_dbm"])
    def test_powers_bounded(self, name):
        # out of range, 10^(P/10) overflows or its inverse divides by zero
        # in the middle of a run; NaN would pass every comparison
        for value in (4000.0, -4000.0, 300.5, math.nan, math.inf):
            with pytest.raises(ValueError, match=rf"{name}.*got {value}"):
                SystemConfig(**{name: value})
        for value in (-300.0, 300.0):
            cfg = SystemConfig(**{name: value})
            for x in (cfg.noise_over_power, cfg.ul_train_power_linear):
                assert np.isfinite(x) and abs(x) >= np.finfo(float).tiny


class TestJsonConfig:
    DOC = {"n_bs_antennas": 8, "n_users": 3, "n_ris": 2,
           "ris_elems_y": 2, "ris_elems_z": 2, "tx_power_dbm": 10.0}

    def test_round_trip(self):
        scn = scenario_from_dict(dict(self.DOC))
        assert scn.config.n_bs_antennas == 8
        assert scn.config.m_ris == 4

    def test_unknown_top_level_key_rejected(self):
        # noise_variance is no setting: sigma^2 = 1 is the model; bandwidth
        # and noise figure shift every cascaded gain as tx_power_dbm does,
        # and the training length T = M*K acts through T*rho alone
        for key in ("frobnicate", "noise_variance", "bandwidth_hz",
                    "noise_figure_db", "ul_train_len"):
            with pytest.raises(ValueError, match="unknown config keys"):
                scenario_from_dict(dict(self.DOC, **{key: 1}))

    def test_unknown_nested_key_rejected(self):
        # the intercept alpha_pl shifts every gain as tx_power_dbm does
        for key in ("bogus", "alpha_pl"):
            doc = dict(self.DOC, pathloss={"beta_pl": 2.0, key: 60.0})
            with pytest.raises(ValueError, match="unknown pathloss keys"):
                scenario_from_dict(doc)
        doc = dict(self.DOC, geometry={"user_radius": 5.0, "zap": 1})
        with pytest.raises(ValueError, match="unknown geometry keys"):
            scenario_from_dict(doc)

    def test_geometry_must_match_ris_count(self):
        doc = dict(self.DOC, geometry={"ris_positions": [[20.0, 20.0]]})
        with pytest.raises(ValueError, match="RIS positions"):
            scenario_from_dict(doc)

    @pytest.mark.parametrize("section,name,value", [
        (None, "carrier_spacing_ratios", [math.nan, 0.5, 0.5]),
        (None, "carrier_spacing_ratios", [math.inf, 0.5, 0.5]),
        (None, "carrier_spacing_ratios", [0.5, 0.5]),
        (None, "carrier_spacing_ratios", [0.5, 0.0, 0.5]),
        ("pathloss", "beta_pl", math.nan),
        ("pathloss", "beta_pl", "2.0"),
        ("pathloss", "shadow_var_db", math.inf),
        ("pathloss", "shadow_var_db", -1.0),
        ("geometry", "circle_center_distance", math.nan),
        ("geometry", "user_radius", -math.inf),
        ("geometry", "bs_position", [0.0, math.nan]),
        ("geometry", "bs_position", [0.0]),
        ("geometry", "ris_positions", [[20.0, math.nan], [20.0, -20.0]]),
        ("geometry", "ris_positions", [[20.0, 20.0, 0.0], [20.0, -20.0]]),
        ("geometry", "ris_positions", [[20.0, 20.0], [20.0]])])
    def test_bad_reals_rejected_at_load(self, section, name, value):
        # NaN passes an `x < 0` check, and synthesis then returns non-finite
        # channels; a 2-entry ratio tuple failed only inside synthesis
        doc = dict(self.DOC, **({name: value} if section is None
                                else {section: {name: value}}))
        with pytest.raises(ValueError, match=name):
            scenario_from_dict(doc)


def test_default_geometry_layout_rule():
    geo = default_geometry(4)
    assert geo.ris_positions == ((20.0, 20.0), (20.0, -20.0),
                                 (20.0, 40.0), (20.0, -40.0))

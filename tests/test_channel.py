import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cn, rand_psd
from gpris.channel import (ChannelEstimate, ChannelSet, _cn_vector,
                           _psd_factor, cascade, draw_estimate,
                           error_scale_dft, estimate_channels, steering_ula,
                           steering_upa, synth_bs_ris, synth_ris_user,
                           synthesize_channels)
from gpris.scenario import path_gain_linear, place_users, scenario_from_dict

RATIOS = (0.5, 0.5, 0.5)


def small_scenario(**over):
    doc = {"n_bs_antennas": 4, "n_users": 2, "n_ris": 2,
           "ris_elems_y": 2, "ris_elems_z": 2, "rng_seed": 0}
    doc.update(over)
    return scenario_from_dict(doc)


class TestSteering:
    def test_ula_zero_angle_all_ones(self):
        assert np.allclose(steering_ula(5, 0.5, 0.0), np.ones(5))

    def test_ula_single_element(self):
        assert np.allclose(steering_ula(1, 0.5, 1.2), [1.0])

    def test_ula_per_element_formula(self):
        a = steering_ula(4, 0.5, np.pi / 6)  # sin = 0.5
        expected = np.exp(1j * np.pi * np.arange(4) * 0.5)
        assert np.allclose(a, expected)

    def test_upa_vertical_elevation_flattens_z(self):
        # cos(pi/2) = 0 so the z factor is all-ones
        a = steering_upa(1, 3, 0.5, 0.5, 0.7, np.pi / 2)
        assert np.allclose(a, np.ones(3))

    def test_upa_single_element(self):
        assert np.allclose(steering_upa(1, 1, 0.5, 0.5, 0.3, 0.4), [1.0])

    def test_upa_kronecker_formula(self):
        az, el = np.pi / 4, np.pi / 3
        a = steering_upa(2, 2, 0.5, 0.5, az, el)
        ay = np.exp(2j * np.pi * np.arange(2) * 0.5 * np.sin(az) * np.sin(el))
        azv = np.exp(2j * np.pi * np.arange(2) * 0.5 * np.cos(el))
        assert np.allclose(a, np.kron(ay, azv))

    @given(st.integers(1, 16), st.floats(-np.pi, np.pi),
           st.floats(-np.pi / 2, np.pi / 2))
    @settings(deadline=None)
    def test_entries_unit_modulus(self, m, az, el):
        a = steering_upa(m, 3, 0.5, 0.5, az, el)
        assert np.max(np.abs(np.abs(a) - 1.0)) < 1e-12


class TestSynthesis:
    def test_bs_ris_single_path_rank_one_ones(self):
        # elevation pi/2 makes both steering factors all-ones (the z-axis
        # phase goes with cos of the elevation, zero only at +-pi/2)
        angles = np.array([[0.0, 0.0, np.pi / 2]])
        h = synth_bs_ris(3, 2, 2, RATIOS, 1.0, angles)
        assert np.allclose(h, np.ones((3, 4)))

    def test_bs_ris_zero_gain(self, rng):
        angles = rng.uniform(size=(2, 3))
        h = synth_bs_ris(3, 2, 2, RATIOS, 0.0, angles)
        assert np.allclose(h, 0.0)

    def test_bs_ris_frobenius_norm_single_path(self, rng):
        gain = 0.7
        angles = rng.uniform(-1.0, 1.0, size=(1, 3))
        h = synth_bs_ris(5, 3, 2, RATIOS, gain, angles)
        assert np.sum(np.abs(h) ** 2) == pytest.approx(gain * 5 * 6, rel=1e-9)

    def test_ris_user_zero_gain(self, rng):
        angles = rng.uniform(size=(2, 2))
        h = synth_ris_user(2, 2, RATIOS, 0.0, angles, np.ones(2))
        assert np.allclose(h, 0.0)

    def test_ris_user_unit_fading_flat_angles(self):
        angles = np.array([[0.0, np.pi / 2]])
        h = synth_ris_user(2, 2, RATIOS, 4.0, angles, np.ones(1))
        assert np.allclose(h, 2.0 * np.ones(4))

    def test_ris_user_mean_energy(self):
        rng = np.random.default_rng(7)
        gain, m = 1.3, 6
        angles = np.zeros((2, 2))
        fading = np.array([cn(2, rng) for _ in range(10_000)])
        h = synth_ris_user(3, 2, RATIOS, gain, angles, fading)
        draws = np.sum(np.abs(h) ** 2, axis=-1)
        se = draws.std(ddof=1) / np.sqrt(draws.size)
        assert abs(draws.mean() - gain * m) < 3 * se

    @pytest.mark.parametrize("n_fading", [1, 3])
    def test_ris_user_fading_must_match_paths(self, n_fading):
        angles = np.zeros((2, 2))
        with pytest.raises(ValueError, match="paths"):
            synth_ris_user(2, 2, RATIOS, 1.0, angles, np.ones(n_fading))


class TestBatchAxes:
    """A batched helper call equals the unbatched calls it stacks, bit for bit."""

    def test_steering(self, rng):
        az = rng.uniform(-np.pi, np.pi, size=(3, 2))
        el = rng.uniform(-np.pi / 2, np.pi / 2, size=(3, 2))
        ula = steering_ula(5, 0.5, az)
        upa = steering_upa(3, 2, 0.5, 0.4, az, el)
        assert ula.shape == (3, 2, 5) and upa.shape == (3, 2, 6)
        for idx in np.ndindex(3, 2):
            assert np.array_equal(ula[idx], steering_ula(5, 0.5, az[idx]))
            assert np.array_equal(upa[idx], steering_upa(3, 2, 0.5, 0.4,
                                                         az[idx], el[idx]))

    def test_synthesis_and_cascade(self, rng):
        gain1 = rng.uniform(size=3)
        gain2 = rng.uniform(size=(2, 3))
        angles1 = rng.uniform(-1.0, 1.0, size=(3, 2, 3))
        angles2 = rng.uniform(-1.0, 1.0, size=(2, 3, 2, 2))
        fading = cn((2, 3, 2), rng)
        h1 = synth_bs_ris(4, 3, 2, RATIOS, gain1, angles1)
        h2 = synth_ris_user(3, 2, RATIOS, gain2, angles2, fading)
        c = cascade(h1, h2)
        assert h1.shape == (3, 4, 6) and h2.shape == (2, 3, 6)
        assert c.shape == (2, 3, 4, 6)
        for li in range(3):
            assert np.array_equal(
                h1[li], synth_bs_ris(4, 3, 2, RATIOS, gain1[li], angles1[li]))
            for ki in range(2):
                assert np.array_equal(h2[ki, li], synth_ris_user(
                    3, 2, RATIOS, gain2[ki, li], angles2[ki, li], fading[ki, li]))
                assert np.array_equal(c[ki, li], cascade(h1[li], h2[ki, li]))

    def test_negative_gain_anywhere_rejected(self, rng):
        gain = np.array([1.0, -1e-3])
        with pytest.raises(ValueError, match="gain"):
            synth_bs_ris(2, 2, 2, RATIOS, gain, rng.uniform(size=(2, 1, 3)))
        with pytest.raises(ValueError, match="gain"):
            synth_ris_user(2, 2, RATIOS, gain, rng.uniform(size=(2, 1, 2)),
                           np.ones((2, 1)))


class TestCascade:
    def test_ones_identity(self, rng):
        h1 = cn((3, 4), rng)
        assert np.allclose(cascade(h1, np.ones(4)), h1)

    def test_zero_vector(self, rng):
        h1 = cn((3, 4), rng)
        assert np.allclose(cascade(h1, np.zeros(4)), 0.0)

    def test_dense_diag_oracle(self, rng):
        h1, h2 = cn((2, 3), rng), cn(3, rng)
        assert np.allclose(cascade(h1, h2), h1 @ np.diag(h2))

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError):
            cascade(cn((2, 3), rng), cn(4, rng))

    @given(st.complex_numbers(max_magnitude=10, allow_nan=False),
           st.complex_numbers(max_magnitude=10, allow_nan=False))
    @settings(deadline=None, max_examples=25)
    def test_linearity(self, a, b):
        rng = np.random.default_rng(0)
        h1, u, v = cn((2, 3), rng), cn(3, rng), cn(3, rng)
        lhs = cascade(h1, a * u + b * v)
        rhs = a * cascade(h1, u) + b * cascade(h1, v)
        assert np.allclose(lhs, rhs, atol=1e-12)


def error_covariance_dft(prior_cov, t_ul, rho_ul_linear, gamma):
    """Dense DFT-training LMMSE error covariance (C^-1 + T*rho/gamma I)^-1,
    the oracle of error_scale_dft."""
    if rho_ul_linear <= 0:
        raise ValueError("rho_ul_linear must be > 0")
    dim = prior_cov.shape[0]
    scale = t_ul * rho_ul_linear / gamma
    r = np.linalg.inv(np.linalg.inv(prior_cov) + scale * np.eye(dim))
    return 0.5 * (r + r.conj().T)


class TestErrorCovariance:
    def test_identity_prior_unit_scale(self):
        r = error_covariance_dft(np.eye(4, dtype=complex), 1, 1.0, 1.0)
        assert np.allclose(r, 0.5 * np.eye(4))

    def test_vanishes_for_huge_training(self, rng):
        c = rand_psd(4, rng) + np.eye(4)
        r = error_covariance_dft(c, 10**6, 10**6, 1.0)
        assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(c)

    def test_dense_inverse_oracle(self, rng):
        c = rand_psd(5, rng) + np.eye(5)
        s = 2.7
        r = error_covariance_dft(c, 3, 0.9, 1.0)
        # scale = t*rho/gamma = 2.7
        expected = np.linalg.inv(np.linalg.inv(c) + s * np.eye(5))
        assert np.allclose(r, expected, rtol=1e-9)

    def test_loewner_monotone_in_training(self, rng):
        c = rand_psd(4, rng) + np.eye(4)
        r1 = error_covariance_dft(c, 2, 1.0, 1.0)
        r2 = error_covariance_dft(c, 20, 1.0, 1.0)
        vals = np.linalg.eigvalsh(r1 - r2)
        assert vals.min() >= -1e-9

    def test_isotropic_fast_path_matches_dense(self):
        gamma, t, rho = 0.3, 8, 2.0
        scale = error_scale_dft(gamma, t, rho)
        dense = error_covariance_dft(gamma * np.eye(3, dtype=complex), t, rho, gamma)
        assert np.allclose(dense, scale * np.eye(3), rtol=1e-12)

    def test_hermitian_psd(self, rng):
        c = rand_psd(4, rng) + np.eye(4)
        r = error_covariance_dft(c, 4, 1.0, 1.0)
        assert np.allclose(r, r.conj().T, atol=1e-10)
        assert np.linalg.eigvalsh(r).min() >= -1e-10

    @pytest.mark.parametrize("error", [
        lambda: error_covariance_dft(np.eye(2, dtype=complex), 1, 0.0, 1.0),
        lambda: error_scale_dft(1.0, 1, 0.0)], ids=["dense", "scale"])
    def test_nonpositive_power_rejected(self, error):
        with pytest.raises(ValueError):
            error()


def draw_dense_link(cascaded, r, rng):
    """One link's estimate c - e with e ~ CN(0, r), drawn through the
    factor mc_instantaneous_se draws with."""
    n, m = cascaded.shape
    e_vec = _psd_factor(r) @ _cn_vector(n * m, rng)
    return cascaded - e_vec.reshape((n, m), order="F")


class TestDrawEstimate:
    def test_zero_error_is_exact(self, rng):
        truth = synthesize_channels(small_scenario(), rng)
        est = draw_estimate(truth, np.zeros(truth.gamma.shape), rng)
        assert np.array_equal(est.cascaded_est, truth.cascaded)

    def test_deterministic(self):
        scn = small_scenario()
        truth = synthesize_channels(scn, np.random.default_rng(5))
        err = 0.1 * np.ones(truth.gamma.shape)
        a = draw_estimate(truth, err, np.random.default_rng(9))
        b = draw_estimate(truth, err, np.random.default_rng(9))
        assert np.array_equal(a.cascaded_est, b.cascaded_est)

    def test_sample_covariance_matches(self, rng):
        # single tiny link so the dense sample covariance is cheap
        scn = small_scenario(n_bs_antennas=2, n_users=1, n_ris=1,
                             ris_elems_y=2, ris_elems_z=1)
        truth = synthesize_channels(scn, rng)
        r = rand_psd(4, rng, scale=0.5)
        draws = np.empty((10_000, 4), dtype=complex)
        for i in range(draws.shape[0]):
            est = draw_dense_link(truth.cascaded[0, 0], r, rng)
            e = truth.cascaded[0, 0] - est
            draws[i] = e.flatten(order="F")
        sample = draws.T @ draws.conj() / draws.shape[0]
        err = np.linalg.norm(sample - r) / np.linalg.norm(r)
        assert err < 0.05

    def test_estimate_is_read_only(self, rng):
        # its transposed copies are formed once, so it may not change after
        truth = synthesize_channels(small_scenario(), rng)
        est = draw_estimate(truth, 0.1 * np.ones(truth.gamma.shape), rng)
        k, l, n, m = est.cascaded_est.shape
        assert np.array_equal(est.stacked, est.cascaded_est.transpose(
            0, 2, 1, 3).reshape(k * n, l * m))
        assert np.array_equal(est.conj_rows, np.conj(np.swapaxes(
            est.cascaded_est, 2, 3)).reshape(k * l * m, n))
        for x in (est.cascaded_est, est.stacked, est.conj_rows):
            with pytest.raises(ValueError, match="read-only"):
                x[0, 0] = 0.0
        with pytest.raises(AttributeError):
            est.cascaded_est = truth.cascaded

    def test_perfect_estimate_has_zero_error(self, rng):
        truth = synthesize_channels(small_scenario(), rng)
        k, l = truth.cascaded.shape[:2]
        est = ChannelEstimate(truth.cascaded.copy(), err_scale=np.zeros((k, l)))
        assert np.all(est.err_scale == 0.0)
        assert np.array_equal(est.cascaded_est, truth.cascaded)


def _old_cn_vector(size, rng):
    return (rng.standard_normal(size) + 1j * rng.standard_normal(size)) / np.sqrt(2)


class TestDrawsTakeTheOldBits:
    """The CN draws and the estimate, formed with fewer temporaries, equal
    the formulas they replace bit for bit."""

    @pytest.mark.parametrize("size", [7, (3, 4), (2, 3, 4, 5), ()])
    def test_cn_vector(self, size):
        for seed in range(5):
            new = _cn_vector(size, np.random.default_rng(seed))
            old = _old_cn_vector(size, np.random.default_rng(seed))
            assert new.shape == old.shape
            assert new.tobytes() == old.tobytes()

    @pytest.mark.parametrize("zero", [False, True])
    def test_draw_estimate(self, zero):
        for seed in range(5):
            rng = np.random.default_rng(seed)
            truth = synthesize_channels(small_scenario(), rng)
            err = rng.uniform(0.0, 0.3, size=truth.gamma.shape)
            if zero:
                err[0] = 0.0  # err_scale = 0 on every link of one user
            est = draw_estimate(truth, err, np.random.default_rng(seed + 10))
            e = np.sqrt(np.maximum(err, 0.0))[:, :, None, None] * _old_cn_vector(
                truth.cascaded.shape, np.random.default_rng(seed + 10))
            assert est.cascaded_est.tobytes() == (truth.cascaded - e).tobytes()


class TestSynthesizeChannels:
    def test_cascaded_consistency(self, rng):
        truth = synthesize_channels(small_scenario(), rng)
        n, k, l, m = truth.dims
        for ki in range(k):
            for li in range(l):
                ref = truth.bs_ris[li] @ np.diag(truth.ris_user[ki, li])
                err = (np.linalg.norm(truth.cascaded[ki, li] - ref)
                       / max(np.linalg.norm(ref), 1e-30))
                assert err < 1e-12

    def test_disabled_pathloss_unit_gains(self, rng):
        scn = small_scenario(pathloss={"enabled": False})
        truth = synthesize_channels(scn, rng)
        assert np.all(truth.gamma1 == 1.0)
        assert np.all(truth.gamma2 == 1.0)

    def test_estimate_channels_isotropic(self, rng):
        scn = small_scenario(pathloss={"enabled": False})
        truth = synthesize_channels(scn, rng)
        est = estimate_channels(truth, scn, rng)
        assert est.is_isotropic
        cfg = scn.config
        expected = error_scale_dft(1.0, cfg.ul_train_len,
                                   cfg.ul_train_power_linear)
        assert np.allclose(est.err_scale, expected)


def _oracle_steering_ula(n, spacing_ratio, angle):
    idx = np.arange(n)
    return np.exp(2j * np.pi * idx * spacing_ratio * np.sin(angle))


def _oracle_steering_upa(m_y, m_z, ratio_y, ratio_z, azimuth, elevation):
    iy = np.arange(m_y)
    iz = np.arange(m_z)
    a_y = np.exp(2j * np.pi * iy * ratio_y * np.sin(azimuth) * np.sin(elevation))
    a_z = np.exp(2j * np.pi * iz * ratio_z * np.cos(elevation))
    return np.kron(a_y, a_z)


def oracle_synthesize_channels(scenario, rng):
    """Per-link synthesis: one steering call per path, one link at a time."""
    cfg = scenario.config
    geo = scenario.geometry
    pl = scenario.pathloss
    n, k, l = cfg.n_bs_antennas, cfg.n_users, cfg.n_ris
    my, mz = cfg.ris_elems_y, cfg.ris_elems_z
    m = my * mz
    _, ry, rz = cfg.carrier_spacing_ratios
    bs = np.asarray(geo.bs_position, dtype=float)
    ris_pos = np.asarray(geo.ris_positions, dtype=float)
    users = place_users(geo, k, rng)

    gamma1 = np.empty(l)
    bs_ris = np.empty((l, n, m), dtype=complex)
    for li in range(l):
        d = float(np.linalg.norm(ris_pos[li] - bs))
        gamma1[li] = path_gain_linear(pl, d, rng.standard_normal())
        aod = rng.uniform(0.0, np.pi, size=cfg.n_paths_bs_ris)
        az = rng.uniform(-np.pi, np.pi, size=cfg.n_paths_bs_ris)
        el = rng.uniform(-np.pi / 2, np.pi / 2, size=cfg.n_paths_bs_ris)
        h = np.zeros((n, m), dtype=complex)
        for p in range(cfg.n_paths_bs_ris):
            a_b = _oracle_steering_ula(n, cfg.carrier_spacing_ratios[0], aod[p])
            a_r = _oracle_steering_upa(my, mz, ry, rz, az[p], el[p])
            h += np.sqrt(gamma1[li]) * np.outer(a_b, a_r.conj())
        bs_ris[li] = h / np.sqrt(cfg.n_paths_bs_ris)

    gamma2 = np.empty((k, l))
    ris_user = np.empty((k, l, m), dtype=complex)
    for ki in range(k):
        for li in range(l):
            d = float(np.linalg.norm(ris_pos[li] - users[ki]))
            gamma2[ki, li] = path_gain_linear(pl, d, rng.standard_normal())
            az = rng.uniform(-np.pi, np.pi, size=cfg.n_paths_ris_user)
            el = rng.uniform(-np.pi / 2, np.pi / 2, size=cfg.n_paths_ris_user)
            fading = _cn_vector(cfg.n_paths_ris_user, rng)
            h = np.zeros(m, dtype=complex)
            for p in range(cfg.n_paths_ris_user):
                h += (np.sqrt(gamma2[ki, li]) * fading[p]
                      * _oracle_steering_upa(my, mz, ry, rz, az[p], el[p]))
            ris_user[ki, li] = h / np.sqrt(cfg.n_paths_ris_user)

    cascaded = np.empty((k, l, n, m), dtype=complex)
    for ki in range(k):
        for li in range(l):
            cascaded[ki, li] = bs_ris[li] * ris_user[ki, li][np.newaxis, :]
    return ChannelSet(bs_ris, ris_user, cascaded, gamma1, gamma2)


PAPER_SIZE = {"n_bs_antennas": 16, "n_users": 4}
SMALL = {"n_bs_antennas": 4, "n_users": 2, "n_ris": 3}


@pytest.mark.parametrize("doc", [
    {**PAPER_SIZE, "n_ris": 2, "ris_elems_y": 8, "ris_elems_z": 8},
    {**PAPER_SIZE, "n_ris": 8, "ris_elems_y": 4, "ris_elems_z": 2},
    {**SMALL, "ris_elems_y": 2, "ris_elems_z": 2,
     "n_paths_bs_ris": 1, "n_paths_ris_user": 3},
    {**SMALL, "ris_elems_y": 2, "ris_elems_z": 2,
     "n_paths_bs_ris": 3, "n_paths_ris_user": 1},
    {**SMALL, "ris_elems_y": 2, "ris_elems_z": 2,
     "pathloss": {"enabled": False}},
    {**SMALL, "ris_elems_y": 2, "ris_elems_z": 5},
], ids=["L2_M64", "L8_M8", "paths_1_3", "paths_3_1", "no_pathloss",
        "my_ne_mz"])
def test_synthesis_matches_per_link_oracle(doc):
    scn = scenario_from_dict(doc)
    for seed in range(200):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        got = synthesize_channels(scn, rng)
        ref = oracle_synthesize_channels(scn, ref_rng)
        for name in ("bs_ris", "ris_user", "cascaded", "gamma1", "gamma2"):
            assert np.array_equal(getattr(got, name), getattr(ref, name)), (
                seed, name)
        # estimation and the initial pair draw from the same generator next
        assert rng.bit_generator.state == ref_rng.bit_generator.state, seed


def test_estimate_error_scales_match_scalar_calls(rng):
    scn = small_scenario()
    truth = synthesize_channels(scn, rng)
    est = estimate_channels(truth, scn, rng)
    cfg = scn.config
    expected = [error_scale_dft(g, cfg.ul_train_len, cfg.ul_train_power_linear)
                for g in truth.gamma.flat]
    assert np.array_equal(est.err_scale.ravel(), expected)


def test_vectorization_column_major(rng):
    x = cn((3, 4), rng)
    v = x.flatten(order="F")
    assert v[1 + 3 * 2] == x[1, 2]
    assert np.array_equal(v.reshape((3, 4), order="F"), x)


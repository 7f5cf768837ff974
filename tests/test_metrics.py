import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from conftest import cn, rand_estimate, rand_phases, rand_precoder, rand_psd
from gpris.channel import ChannelEstimate
from gpris.gpi_precoder import build_precoder_quadratics
from gpris.gpi_ris import build_ris_quadratics
from gpris.metrics import (PhaseShifts, Precoder, _sum_se_from_channels,
                           block_quad_forms, commutation_matrix,
                           effective_channels, exact_sum_se, exact_unit_modulus,
                           lower_bound_phase_form, lower_bound_sum_se,
                           mc_instantaneous_se, nmse_unit_modulus,
                           theta_matrices, xi_matrices)


class TestPrecoderType:
    def test_power_cap_enforced(self, rng):
        f = cn((4, 2), rng)
        f *= 2.0 / np.linalg.norm(f)
        with pytest.raises(ValueError, match="total power"):
            Precoder(f)

    def test_stacked_round_trip(self, rng):
        p = rand_precoder(4, 3, rng)
        back = Precoder.from_stacked(p.stacked, 4, 3)
        assert np.allclose(back.matrix, p.matrix)
        # column-stacked: first N entries are f_1
        assert np.allclose(p.stacked[:4], p.matrix[:, 0])

    def test_total_power(self, rng):
        p = rand_precoder(4, 3, rng, power=0.7)
        assert p.total_power == pytest.approx(0.7)


class TestPhaseShiftsType:
    def test_projected_flag_requires_unit_modulus(self, rng):
        with pytest.raises(ValueError):
            PhaseShifts(0.9 * np.exp(1j * rng.uniform(size=(2, 3))),
                        projected=True)

    def test_normalized_unit_norm_when_projected(self, rng):
        ph = rand_phases(2, 3, rng)
        assert np.linalg.norm(ph.normalized) == pytest.approx(1.0, abs=1e-9)

    def test_project_is_nearest_unit_modulus(self, rng):
        # for fixed moduli, e^{j arg} minimizes the distance to sqrt(LM) w
        w = cn(6, rng)
        w /= np.linalg.norm(w)
        target = np.sqrt(6) * w
        proj = PhaseShifts.from_normalized(w, 2, 3).project().stacked
        base = np.linalg.norm(proj - target)
        for _ in range(50):
            other = proj * np.exp(1j * rng.uniform(-0.5, 0.5, size=6))
            assert np.linalg.norm(other - target) >= base - 1e-12

    def test_from_normalized_round_trip(self, rng):
        ph = rand_phases(2, 4, rng)
        back = PhaseShifts.from_normalized(ph.normalized, 2, 4)
        assert np.allclose(back.per_ris, ph.per_ris)


def _unit_modulus_loop(angles):
    """Candidate-by-candidate ulp search, the reference for exact_unit_modulus."""
    z = np.exp(1j * np.asarray(angles, dtype=float))
    off = np.abs(z) != 1.0
    if not np.any(off):
        return z
    shape = z.shape
    z = z.ravel()
    off = off.ravel()
    re, im = z.real.copy(), z.imag.copy()

    def _step(x, d):
        for _ in range(abs(d)):
            x = np.nextafter(x, np.inf if d > 0 else -np.inf)
        return x

    steps = sorted(((dr, di) for dr in range(-2, 3) for di in range(-2, 3)),
                   key=lambda s: (abs(s[0]) + abs(s[1]), s))
    for dr, di in steps[1:]:
        idx = np.flatnonzero(off)
        if idx.size == 0:
            break
        rr = _step(re[idx], dr)
        ii = _step(im[idx], di)
        good = np.abs(rr + 1j * ii) == 1.0
        sel = idx[good]
        re[sel] = rr[good]
        im[sel] = ii[good]
        off[sel] = False
    if np.any(off):
        raise FloatingPointError("could not renormalize phases to unit modulus")
    return (re + 1j * im).reshape(shape)


class TestExactUnitModulus:
    @staticmethod
    def _same_bits(a, b):
        return a.shape == b.shape and np.array_equal(a.view(np.uint64),
                                                     b.view(np.uint64))

    def test_matches_loop_bit_for_bit(self, rng):
        special = np.array([0.0, -0.0, np.pi / 2, -np.pi / 2, np.pi, -np.pi])
        angles = np.concatenate([special, rng.uniform(-np.pi, np.pi, 200_000),
                                 rng.uniform(-50.0, 50.0, 20_000)])
        off = np.abs(np.exp(1j * angles)) != 1.0
        assert 0.1 < off.mean() < 0.9  # both branches are exercised
        got = exact_unit_modulus(angles)
        assert self._same_bits(got, _unit_modulus_loop(angles))
        assert np.all(np.abs(got) == 1.0)
        # (L, M) input keeps its shape
        grid = angles[:64 * 50].reshape(50, 8, 8)
        for block in grid:
            assert self._same_bits(exact_unit_modulus(block),
                                   _unit_modulus_loop(block))

    def test_all_on_circle_returns_exp(self, rng):
        angles = rng.uniform(-np.pi, np.pi, 5_000)
        exact = angles[np.abs(np.exp(1j * angles)) == 1.0]
        assert exact.size > 0
        got = exact_unit_modulus(exact)
        assert self._same_bits(got, np.exp(1j * exact))
        assert self._same_bits(got, _unit_modulus_loop(exact))

    def test_unreachable_point_raises(self):
        for fn in (exact_unit_modulus, _unit_modulus_loop):
            with pytest.raises(FloatingPointError, match="unit modulus"):
                fn(np.array([0.3, np.nan]))


class TestExactSumSe:
    def test_orthogonal_single_user_zero(self):
        casc = np.zeros((1, 1, 2, 1), dtype=complex)
        casc[0, 0, :, 0] = [1.0, 0.0]
        phases = PhaseShifts(np.ones((1, 1)), projected=True)
        f = Precoder(np.array([[0.0], [1.0]]))  # h^H f = 0
        assert exact_sum_se(casc, f, phases, 0.01) == 0.0

    def test_unit_sinr_single_user(self):
        nop = 0.04
        casc = np.zeros((1, 1, 2, 1), dtype=complex)
        casc[0, 0, :, 0] = [np.sqrt(nop), 0.0]  # |h^H f|^2 = nop
        phases = PhaseShifts(np.ones((1, 1)), projected=True)
        f = Precoder(np.array([[1.0], [0.0]]))
        assert exact_sum_se(casc, f, phases, nop) == pytest.approx(1.0)

    def test_scalar_formula_oracle(self, rng):
        n, k, l, m = 3, 2, 2, 2
        casc = cn((k, l, n, m), rng)
        phases = rand_phases(l, m, rng)
        f = rand_precoder(n, k, rng)
        nop = 0.1
        h = np.einsum("klnm,lm->kn", casc, phases.per_ris)
        total = 0.0
        for ki in range(k):
            sig = abs(np.vdot(h[ki], f.matrix[:, ki])) ** 2
            interf = sum(abs(np.vdot(h[ki], f.matrix[:, i])) ** 2
                         for i in range(k) if i != ki)
            total += np.log2(1 + sig / (interf + nop))
        assert exact_sum_se(casc, f, phases, nop) == pytest.approx(total, rel=1e-12)


class TestLowerBound:
    def test_zero_error_equals_exact_on_estimates(self, rng):
        est = rand_estimate(3, 2, 2, 2, rng, err=0.0)
        f = rand_precoder(3, 2, rng)
        ph = rand_phases(2, 2, rng)
        lb = lower_bound_sum_se(est, f, ph, 0.1)
        ex = exact_sum_se(est.cascaded_est, f, ph, 0.1)
        assert lb == pytest.approx(ex, rel=1e-12)

    def test_zero_precoder_single_user(self, rng):
        est = rand_estimate(3, 1, 2, 2, rng)
        f = Precoder(np.zeros((3, 1)))
        ph = rand_phases(2, 2, rng)
        assert lower_bound_sum_se(est, f, ph, 0.1) == 0.0

    @pytest.mark.parametrize("dense", [False, True])
    def test_dual_form_equivalence(self, rng, dense):
        for _ in range(20):
            est = rand_estimate(4, 3, 2, 3, rng, err=0.2, dense=dense)
            f = rand_precoder(4, 3, rng)
            ph = rand_phases(2, 3, rng)
            a = lower_bound_sum_se(est, f, ph, 0.05)
            b = lower_bound_phase_form(est, f, ph, 0.05)
            assert b == pytest.approx(a, rel=1e-9)

    def test_tightness_as_error_vanishes(self, rng):
        est = rand_estimate(3, 2, 2, 2, rng, err=1e-8)
        f = rand_precoder(3, 2, rng)
        ph = rand_phases(2, 2, rng)
        lb = lower_bound_sum_se(est, f, ph, 0.1)
        ex = exact_sum_se(est.cascaded_est, f, ph, 0.1)
        assert abs(lb - ex) < 1e-6

    def test_common_phase_rotation_invariance(self, rng):
        est = rand_estimate(3, 2, 2, 2, rng, err=0.1)
        f = rand_precoder(3, 2, rng)
        ph = rand_phases(2, 2, rng)
        rotated = PhaseShifts(np.exp(0.7j) * ph.per_ris, projected=True)
        for fn in (lower_bound_sum_se, lower_bound_phase_form):
            assert fn(est, f, rotated, 0.1) == pytest.approx(
                fn(est, f, ph, 0.1), abs=1e-9)
        assert exact_sum_se(est.cascaded_est, f, rotated, 0.1) == pytest.approx(
            exact_sum_se(est.cascaded_est, f, ph, 0.1), abs=1e-9)


    @pytest.mark.parametrize("dense", [False, True])
    def test_precoder_lanes_against_unbatched_phases(self, rng, dense):
        # as exact_sum_se takes them: each lane as a call on that lane alone
        est = rand_estimate(4, 3, 2, 3, rng, err=0.2, dense=dense)
        precoders = [rand_precoder(4, 3, rng) for _ in range(2)]
        ph = rand_phases(2, 3, rng)
        lanes = Precoder(np.stack([f.matrix for f in precoders]))
        lb = lower_bound_sum_se(est, lanes, ph, 0.05)
        assert lb.shape == (2,)
        for i, f in enumerate(precoders):
            assert lb[i] == lower_bound_sum_se(est, f, ph, 0.05)


def xi_dense_reference(err_cov: np.ndarray, phi: np.ndarray, n: int) -> np.ndarray:
    """Dense-Kronecker Xi contribution of one (k, l) link."""
    sel = np.kron(phi[np.newaxis, :], np.eye(n))  # phi^T kron I_N, N x NM
    return sel @ err_cov @ sel.conj().T


def theta_dense_reference(err_cov: np.ndarray, f: np.ndarray, m: int) -> np.ndarray:
    """Dense-Kronecker Theta contribution of one (k, l) link and all users."""
    n = f.shape[0]
    p = commutation_matrix(n, m)
    mid = p @ err_cov.conj() @ p.T
    theta = np.zeros((m, m), dtype=complex)
    for i in range(f.shape[1]):
        sel = np.kron(f[:, i][np.newaxis, :], np.eye(m))  # f_i^T kron I_M
        theta += sel @ mid @ sel.conj().T
    return theta


class TestXiTheta:
    def test_xi_matches_dense_kron(self, rng):
        n, k, l, m = 3, 2, 2, 2
        est = rand_estimate(n, k, l, m, rng, err=0.3, dense=True)
        ph = rand_phases(l, m, rng)
        xi = xi_matrices(est, ph)
        for ki in range(k):
            ref = sum(xi_dense_reference(est.err_dense[ki][li], ph.per_ris[li], n)
                      for li in range(l))
            assert np.allclose(xi[ki], ref, atol=1e-10)

    def test_theta_matches_dense_kron(self, rng):
        n, k, l, m = 3, 2, 2, 2
        est = rand_estimate(n, k, l, m, rng, err=0.3, dense=True)
        f = rand_precoder(n, k, rng)
        theta = theta_matrices(est, f)
        for ki in range(k):
            for li in range(l):
                ref = theta_dense_reference(est.err_dense[ki][li], f.matrix, m)
                assert np.allclose(theta[ki, li], ref, atol=1e-10)

    def test_isotropic_fast_paths_match_dense_route(self, rng):
        n, k, l, m = 3, 2, 2, 2
        scale = 0.2 * np.ones((k, l))
        casc = cn((k, l, n, m), rng)
        iso = ChannelEstimate(casc, err_scale=scale)
        dense = ChannelEstimate(casc, err_dense=[
            [scale[ki, li] * np.eye(n * m, dtype=complex) for li in range(l)]
            for ki in range(k)])
        ph = rand_phases(l, m, rng)
        f = rand_precoder(n, k, rng)
        assert np.allclose(xi_matrices(iso, ph), xi_matrices(dense, ph), atol=1e-10)
        assert np.allclose(theta_matrices(iso, f), theta_matrices(dense, f),
                           atol=1e-10)


class TestIsotropicDiagonal:
    """Under isotropic errors Xi_k and Theta_kl are scaled identities, which
    the quadratics and the bound add on the diagonal in place; the forms
    through the dense xi_matrices / theta_matrices arrays are the oracle."""

    @pytest.mark.parametrize("l, m", [(8, 8), (2, 64)])
    def test_in_place_forms_equal_dense_forms(self, l, m):
        n, k, lanes, lm = 16, 4, 7, l * m
        for seed in range(5):
            rng = np.random.default_rng(seed)
            est = ChannelEstimate(cn((k, l, n, m), rng),
                                  err_scale=rng.uniform(0.01, 0.2, (k, l)))
            f = Precoder(np.stack([rand_precoder(n, k, rng).matrix
                                   for _ in range(lanes)]))
            ph = PhaseShifts(np.stack([rand_phases(l, m, rng).per_ris
                                       for _ in range(lanes)]), projected=True)
            h = effective_channels(est.cascaded_est, ph)
            g_ref = xi_matrices(est, ph) + h[..., :, None] * h[..., None, :].conj()
            q = build_precoder_quadratics(est, ph, 0.1)
            assert np.array_equal(q.g_blocks, g_ref)
            rows = np.conj(np.swapaxes(est.cascaded_est, 2, 3)).reshape(-1, n)
            g = (rows @ f.matrix).reshape((lanes, k, l, m, k))
            c_ref = g @ np.conj(np.swapaxes(g, -1, -2))
            c_ref *= lm
            theta = theta_matrices(est, f)
            theta *= lm
            c_ref += theta
            assert np.array_equal(build_ris_quadratics(est, f, 0.1).c_blocks,
                                  c_ref)
            extra = block_quad_forms(xi_matrices(est, ph), f.matrix)
            lb_ref = _sum_se_from_channels(h, f.matrix, extra, 0.1)
            assert np.array_equal(lower_bound_sum_se(est, f, ph, 0.1), lb_ref)


class TestCommutation:
    def test_one_by_one(self):
        assert np.array_equal(commutation_matrix(1, 1), [[1.0]])

    def test_orthogonal_2_3(self):
        p = commutation_matrix(2, 3)
        assert np.array_equal(p @ p.T, np.eye(6))

    def test_basis_2_3(self):
        p = commutation_matrix(2, 3)
        for i in range(2):
            for j in range(3):
                e = np.zeros((2, 3))
                e[i, j] = 1.0
                assert np.array_equal(p @ e.flatten(order="F"),
                                      e.T.flatten(order="F"))

    @given(st.integers(1, 6), st.integers(1, 6))
    @settings(deadline=None)
    def test_permutation_property(self, n, m):
        p = commutation_matrix(n, m)
        assert np.array_equal(p.sum(axis=0), np.ones(n * m))
        assert np.array_equal(p.sum(axis=1), np.ones(n * m))


class TestNmse:
    def test_uniform_modulus_zero(self):
        w = np.exp(1j * np.linspace(0, 3, 6)) / np.sqrt(6)
        assert nmse_unit_modulus(w) == pytest.approx(0.0, abs=1e-15)

    def test_spike_vector(self):
        w = np.array([1.0, 0.0, 0.0, 0.0]) * np.exp(0.3j)
        assert nmse_unit_modulus(w) == pytest.approx(1.0)

    def test_global_phase_invariance(self, rng):
        w = cn(8, rng)
        w /= np.linalg.norm(w)
        assert nmse_unit_modulus(w * np.exp(1.1j)) == pytest.approx(
            nmse_unit_modulus(w), rel=1e-12)

    def test_zero_vector_rejected(self):
        with pytest.raises(ValueError):
            nmse_unit_modulus(np.zeros(4))

    def test_nonnegative(self, rng):
        for _ in range(20):
            w = cn(6, rng)
            assert nmse_unit_modulus(w / np.linalg.norm(w)) >= 0.0


class TestMonteCarlo:
    def test_zero_error_collapses_to_exact(self, rng):
        est = rand_estimate(3, 2, 2, 2, rng, err=0.0)
        f = rand_precoder(3, 2, rng)
        ph = rand_phases(2, 2, rng)
        mean, se = mc_instantaneous_se(est, f, ph, 0.1, 200, rng)
        assert mean == pytest.approx(exact_sum_se(est.cascaded_est, f, ph, 0.1))
        assert se == pytest.approx(0.0, abs=1e-12)

    def test_reproducible(self, rng):
        est = rand_estimate(3, 2, 2, 2, rng, err=0.1)
        f = rand_precoder(3, 2, rng)
        ph = rand_phases(2, 2, rng)
        m1, _ = mc_instantaneous_se(est, f, ph, 0.1, 500, np.random.default_rng(4))
        m2, _ = mc_instantaneous_se(est, f, ph, 0.1, 500, np.random.default_rng(4))
        assert m1 == m2

    @pytest.mark.parametrize("dense", [False, True])
    def test_jensen_bound_holds(self, rng, dense):
        for trial in range(5):
            est = rand_estimate(3, 2, 2, 2, rng, err=0.15, dense=dense)
            f = rand_precoder(3, 2, rng)
            ph = rand_phases(2, 2, rng)
            draws = 2000 if dense else 10_000
            mean, se = mc_instantaneous_se(est, f, ph, 0.1, draws, rng)
            bound = lower_bound_sum_se(est, f, ph, 0.1)
            assert mean >= bound - 3 * se

    def test_dense_and_isotropic_paths_agree(self, rng):
        n, k, l, m = 2, 2, 1, 2
        scale = 0.1 * np.ones((k, l))
        casc = cn((k, l, n, m), rng)
        iso = ChannelEstimate(casc, err_scale=scale)
        dense = ChannelEstimate(casc, err_dense=[
            [scale[ki, li] * np.eye(n * m, dtype=complex) for li in range(l)]
            for ki in range(k)])
        f = rand_precoder(n, k, rng)
        ph = rand_phases(l, m, rng)
        m_iso, se_iso = mc_instantaneous_se(iso, f, ph, 0.1, 4000,
                                            np.random.default_rng(1))
        m_dense, se_dense = mc_instantaneous_se(dense, f, ph, 0.1, 4000,
                                                np.random.default_rng(2))
        assert abs(m_iso - m_dense) < 3 * (se_iso + se_dense)


def test_effective_channel_linearity(rng):
    casc = cn((2, 2, 3, 2), rng)
    u = rand_phases(2, 2, rng)
    v = rand_phases(2, 2, rng)
    a, b = 0.3 + 0.2j, -0.8j
    combo = PhaseShifts(a * u.per_ris + b * v.per_ris)
    lhs = effective_channels(casc, combo)
    rhs = a * effective_channels(casc, u) + b * effective_channels(casc, v)
    assert np.allclose(lhs, rhs, atol=1e-12)


@pytest.mark.parametrize("n,k,l,m,lanes", [
    (16, 4, 8, 8, ()), (16, 4, 2, 64, (3,)), (16, 4, 8, 4, (2,)),
    (5, 3, 2, 7, ()), (64, 4, 1, 16, (2,)), (4, 1, 1, 1, ())])
def test_effective_channels_in_row_blocks_take_the_same_bits(rng, n, k, l, m,
                                                             lanes):
    # the row blocks keep OpenBLAS off its thread pool; each row must still
    # round as in the one (KN x LM) product
    est = rand_estimate(n, k, l, m, rng)
    ph = PhaseShifts(np.exp(2j * np.pi * rng.uniform(size=lanes + (l, m))),
                     projected=True)
    whole = est.stacked @ ph.per_ris.reshape(lanes + (l * m, 1))
    h = effective_channels(est, ph)
    assert h.shape == lanes + (k, n)
    assert np.array_equal(h, whole.reshape(lanes + (k, n)))

import numpy as np
import pytest

from conftest import cn, rand_estimate, rand_phases, rand_precoder, rand_psd
from gpris.gpi_precoder import (GpiSettings, PrecoderQuadratics,
                                block_diag_solve, build_precoder_quadratics,
                                gpi_matrices, lambda_bs, run_gpi_precoder)
from gpris.metrics import Precoder, lower_bound_sum_se


def dense_matrix(q, k, with_signal):
    """Dense NK x NK A_k (with_signal=True) or B_k of unbatched quadratics."""
    n, nk = q.n, q.n * q.k
    a = np.kron(np.eye(q.k), q.g_blocks[k]) + q.noise_over_p * np.eye(nk)
    if not with_signal:
        sig = np.outer(q.h_hat[k], q.h_hat[k].conj())
        a[k * n:(k + 1) * n, k * n:(k + 1) * n] -= sig
    return a


class TestSettings:
    def test_defaults(self):
        s = GpiSettings()
        assert s.tol == pytest.approx(0.01)
        assert s.max_iters == 20

    @pytest.mark.parametrize("kwargs", [{"tol": 0.0}, {"tol": -1.0},
                                        {"max_iters": 0}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            GpiSettings(**kwargs)


class TestQuadratics:
    def test_single_user_block_structure(self, rng):
        n = 4
        est = rand_estimate(n, 1, 1, 2, rng, err=0.0)
        ph = rand_phases(1, 2, rng)
        nop = 0.05
        q = build_precoder_quadratics(est, ph, nop)
        # with one user there is no interference and zero error makes
        # Xi = 0, so the block reduces to the signal outer product; the
        # noise floor only enters through the quadratic-form evaluation
        b_block = q.g_blocks[0] - np.outer(q.h_hat[0], q.h_hat[0].conj())
        assert np.allclose(b_block, 0.0, atol=1e-12)
        f = rand_precoder(n, 1, rng).matrix
        qa, qb = q.quad_forms(f)
        sig = abs(np.vdot(q.h_hat[0], f[:, 0])) ** 2
        assert qb[0] == pytest.approx(nop, rel=1e-12)
        assert qa[0] == pytest.approx(sig + nop, rel=1e-12)

    def test_quad_forms_match_dense_matrices(self, rng):
        est = rand_estimate(4, 3, 2, 2, rng, err=0.2)
        ph = rand_phases(2, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f = rand_precoder(4, 3, rng).matrix
        qa, qb = q.quad_forms(f)
        x = f.flatten(order="F")
        for k in range(3):
            a_dense = dense_matrix(q, k, with_signal=True)
            b_dense = dense_matrix(q, k, with_signal=False)
            assert qa[k] == pytest.approx(np.real(x.conj() @ a_dense @ x),
                                          rel=1e-10)
            assert qb[k] == pytest.approx(np.real(x.conj() @ b_dense @ x),
                                          rel=1e-10)

    def test_numerator_minus_denominator_is_signal_power(self, rng):
        est = rand_estimate(4, 2, 2, 2, rng, err=0.2)
        ph = rand_phases(2, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f = rand_precoder(4, 2, rng).matrix
        qa, qb = q.quad_forms(f)
        for k in range(2):
            sig = abs(np.vdot(q.h_hat[k], f[:, k])) ** 2
            assert qa[k] - qb[k] == pytest.approx(sig, rel=1e-9)


class TestLambdaBs:
    def test_matches_rayleigh_quotient_of_dense_operators(self, rng):
        est = rand_estimate(4, 2, 2, 2, rng, err=0.15)
        ph = rand_phases(2, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f = rand_precoder(4, 2, rng).matrix
        qa, qb = q.quad_forms(f)
        assert lambda_bs(q, f) == pytest.approx(np.prod(qa / qb), rel=1e-10)

    def test_equals_two_to_the_bound(self, rng):
        # lambda is the product of SINR+1 terms, i.e. 2^(sum SE bound)
        est = rand_estimate(4, 2, 2, 2, rng, err=0.15)
        ph = rand_phases(2, 2, rng)
        nop = 0.1
        q = build_precoder_quadratics(est, ph, nop)
        f = rand_precoder(4, 2, rng)
        lb = lower_bound_sum_se(est, f, ph, nop)
        assert lambda_bs(q, f.matrix) == pytest.approx(2.0 ** lb, rel=1e-9)

    def test_scale_invariance(self, rng):
        # the noise enters through the power constraint substitution
        # sigma^2/P * ||f||^2, which makes the objective scale free
        est = rand_estimate(4, 2, 1, 2, rng, err=0.1)
        ph = rand_phases(1, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f = rand_precoder(4, 2, rng).matrix
        assert lambda_bs(q, 0.5 * f) == pytest.approx(lambda_bs(q, f),
                                                      rel=1e-10)
        assert lambda_bs(q, 3.0 * f) == pytest.approx(lambda_bs(q, f),
                                                      rel=1e-10)


class TestBlockDiagSolve:
    def test_identity_blocks(self, rng):
        rhs = cn(6, rng)
        blocks = np.stack([np.eye(3, dtype=complex)] * 2)
        assert np.allclose(block_diag_solve(blocks, rhs), rhs)

    def test_matches_dense_solve(self, rng):
        k, n = 3, 4
        blocks = np.stack([np.eye(n) + rand_psd(n, rng) for _ in range(k)])
        rhs = cn(k * n, rng)
        dense = np.zeros((k * n, k * n), dtype=complex)
        for i in range(k):
            dense[i * n:(i + 1) * n, i * n:(i + 1) * n] = blocks[i]
        assert np.allclose(block_diag_solve(blocks, rhs),
                           np.linalg.solve(dense, rhs), atol=1e-10)

    def test_non_positive_definite_reports_block_index(self, rng):
        blocks = np.stack([np.eye(2, dtype=complex),
                           -np.eye(2, dtype=complex)])
        with pytest.raises(np.linalg.LinAlgError, match="block 1"):
            block_diag_solve(blocks, cn(4, rng))


class TestRunGpi:
    def test_single_user_converges_to_matched_filter(self, rng):
        # K=1, zero CSIT error: the bound maximizer is the matched filter
        est = rand_estimate(6, 1, 1, 2, rng, err=0.0)
        ph = rand_phases(1, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f0 = rand_precoder(6, 1, rng).stacked
        f, iters, res = run_gpi_precoder(q, f0, GpiSettings(tol=1e-9,
                                                            max_iters=200))
        h = q.h_hat[0]
        cosine = abs(np.vdot(h, f)) / np.linalg.norm(h)
        assert cosine > 1 - 1e-6

    def test_fixed_point_exits_in_one_iteration(self, rng):
        est = rand_estimate(6, 1, 1, 2, rng, err=0.0)
        ph = rand_phases(1, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f_star = q.h_hat[0] / np.linalg.norm(q.h_hat[0])
        f, iters, res = run_gpi_precoder(q, f_star, GpiSettings(tol=1e-6))
        assert iters == 1
        assert res < 1e-9

    def test_output_unit_norm(self, rng):
        est = rand_estimate(4, 2, 2, 2, rng, err=0.1)
        ph = rand_phases(2, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f0 = rand_precoder(4, 2, rng).stacked
        f, _, _ = run_gpi_precoder(q, f0, GpiSettings())
        assert np.linalg.norm(f) == pytest.approx(1.0, abs=1e-12)

    def test_improves_objective_on_most_seeds(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            est = rand_estimate(4, 3, 2, 2, rng, err=0.1)
            ph = rand_phases(2, 2, rng)
            q = build_precoder_quadratics(est, ph, 0.1)
            f0 = rand_precoder(4, 3, rng).matrix
            before = lambda_bs(q, f0)
            f, _, _ = run_gpi_precoder(q, f0.flatten(order="F"),
                                       GpiSettings(tol=1e-6, max_iters=100))
            after = lambda_bs(q, f.reshape(4, 3, order="F"))
            if after >= before - 1e-12:
                wins += 1
        assert wins >= 95

    def test_sign_flip_invariant_objective(self, rng):
        est = rand_estimate(4, 2, 2, 2, rng, err=0.1)
        ph = rand_phases(2, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f0 = rand_precoder(4, 2, rng).stacked
        s = GpiSettings(tol=1e-8, max_iters=100)
        f_a, _, _ = run_gpi_precoder(q, f0, s)
        f_b, _, _ = run_gpi_precoder(q, -f0, s)
        lam_a = lambda_bs(q, f_a.reshape(4, 2, order="F"))
        lam_b = lambda_bs(q, f_b.reshape(4, 2, order="F"))
        assert lam_a == pytest.approx(lam_b, rel=1e-6)

    def test_residual_definition(self, rng):
        # residual is || Bbar^{-1} Abar f - lambda f || / lambda at the
        # returned iterate
        est = rand_estimate(4, 2, 2, 2, rng, err=0.1)
        ph = rand_phases(2, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f0 = rand_precoder(4, 2, rng).stacked
        f, _, res = run_gpi_precoder(q, f0, GpiSettings(tol=1e-8,
                                                        max_iters=100))
        f_mat = f.reshape(4, 2, order="F")
        apply_abar, bbar, lam = gpi_matrices(q, f_mat)
        image = block_diag_solve(bbar, apply_abar(f_mat).flatten(order="F"))
        assert res == pytest.approx(np.linalg.norm(image - lam * f) / lam,
                                    rel=1e-6)

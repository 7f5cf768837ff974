import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.special import logsumexp, softmax

from conftest import cn, rand_estimate, rand_phases, rand_precoder
import gpris
from gpris import _kernel
from gpris.gpi_precoder import GpiSettings, fixed_point
from gpris.gpi_ris import (ALPHA1, ALPHA2, RisQuadratics, _image,
                           build_ris_quadratics, penalty_weights,
                           ris_gpi_matrices, run_gpi_ris)
from gpris.metrics import (PhaseShifts, Precoder, lower_bound_phase_form,
                           nmse_unit_modulus, theta_matrices)

# the compiled loop is built on first use with the C compiler found on PATH
needs_compiler = pytest.mark.skipif(not _kernel.available(),
                                    reason="no C compiler on PATH")


def smooth_max(values, alpha: float) -> float:
    """LogSumExp upper surrogate (1/alpha) ln sum exp(alpha x_i); >= max."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty value list")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return float(logsumexp(alpha * values) / alpha)


def smooth_min(values, alpha: float) -> float:
    """LogSumExp lower surrogate -alpha ln sum exp(-x_i/alpha); <= min."""
    values = np.asarray(values, dtype=float)
    if values.size == 0:
        raise ValueError("empty value list")
    if alpha <= 0:
        raise ValueError("alpha must be > 0")
    return float(-alpha * logsumexp(values / (-alpha)))


def log2_lambda_ris(q: RisQuadratics, mu: float, r_sigma: float,
                    w: np.ndarray) -> float:
    """Smoothed regularized objective log2 lambda_RIS(w), evaluated in log domain."""
    w_blocks = np.asarray(w, dtype=complex).reshape((q.l, q.m))
    qc, qd = q.quad_forms(w_blocks)
    if np.any(qc <= 0) or np.any(qd <= 0):
        raise FloatingPointError("nonpositive quadratic form")
    x = np.abs(w) ** 2
    ratio_term = float(np.sum(np.log2(qc / qd))) / r_sigma
    penalty = (mu / q.tau) * (smooth_max(x, ALPHA1) - smooth_min(x, ALPHA2))
    return ratio_term - penalty


def lambda_ris(q: RisQuadratics, mu: float, r_sigma: float,
               w: np.ndarray) -> float:
    if abs(np.linalg.norm(w) - 1.0) > 1e-6:
        raise ValueError("w must be unit norm")
    return float(2.0 ** log2_lambda_ris(q, mu, r_sigma, w))


def numpy_reference(monkeypatch, *args):
    """``run_gpi_ris(*args)`` on the numpy fallback, the compiler hidden
    for this call only."""
    with monkeypatch.context() as m:
        m.setattr(_kernel, "find_compiler", lambda: None)
        _kernel._library.cache_clear()
        return run_gpi_ris(*args)


def kernel_args(r_sigma, tol=1e-9, max_iters=200):
    """The scalar arguments of _kernel.ris_loop after the noise level (the
    loop derives tau = 1/(LM) from the sizes, as ``RisQuadratics.tau``)."""
    return (1.0 / (r_sigma * np.log(2)), ALPHA1, ALPHA2, tol, max_iters)


class TestRegularizerSettings:
    """mu and r_sigma are arguments of each call, ALPHA1/ALPHA2 constants."""

    def test_defaults(self):
        assert ALPHA1 == ALPHA2 == 2.0

    @pytest.mark.parametrize("kwargs", [{"mu": -1.0},
                                        {"mu": np.array([1.0, -1.0])},
                                        {"r_sigma": 0.0}, {"mu": np.nan},
                                        {"mu": np.inf},
                                        {"mu": np.array([1.0, np.nan])}])
    def test_rejects_bad_values(self, kwargs, rng):
        est = rand_estimate(3, 2, 2, 2, rng)
        f = Precoder(np.stack([rand_precoder(3, 2, rng).matrix
                               for _ in range(2)]))
        q = build_ris_quadratics(est, f, 0.1)
        w0 = np.stack([rand_phases(2, 2, rng).normalized for _ in range(2)])
        args = {"mu": 0.0, "r_sigma": 1.0, **kwargs}
        with pytest.raises(ValueError):
            run_gpi_ris(q, args["mu"], args["r_sigma"], w0, GpiSettings())

    def test_default_tau(self, rng):
        # tau = 1/(LM) comes from the quadratics' sizes and is no setting
        q = build_ris_quadratics(rand_estimate(3, 2, 2, 8, rng),
                                 rand_precoder(3, 2, rng), 0.1)
        assert q.tau == 1.0 / 16
        with pytest.raises(TypeError):
            run_gpi_ris(q, 0.0, 1.0, rand_phases(2, 8, rng).normalized,
                        GpiSettings(), tau=1.0)


class TestQuadratics:
    def test_zero_precoder_gives_pure_noise_blocks(self, rng):
        est = rand_estimate(3, 2, 2, 2, rng, err=0.1)
        f = Precoder(np.zeros((3, 2)))
        nop = 0.07
        q = build_ris_quadratics(est, f, nop)
        # no signal, no interference, no error leakage: both quadratics
        # reduce to the noise floor times the squared norm
        w = rand_phases(2, 2, rng).normalized
        wb = w.reshape(2, 2)
        qc, qd = q.quad_forms(wb)
        assert np.allclose(qc, nop)
        assert np.allclose(qd, nop)
        assert np.allclose(q.c_blocks, 0.0, atol=1e-14)
        assert np.allclose(q.d_blocks, 0.0, atol=1e-14)

    def test_quad_forms_match_dense_matrices(self, rng):
        est = rand_estimate(3, 2, 2, 3, rng, err=0.2)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.05)
        w = rand_phases(2, 3, rng).normalized.reshape(2, 3)
        qc, qd = q.quad_forms(w)
        x = w.flatten()
        eye = 0.05 * np.eye(6)
        for k in range(2):
            c = block_diag(*q.c_blocks[k]) + eye
            d = block_diag(*q.d_blocks[k]) + eye
            assert qc[k] == pytest.approx(np.real(x.conj() @ c @ x), rel=1e-9)
            assert qd[k] == pytest.approx(np.real(x.conj() @ d @ x), rel=1e-9)

    def test_numerator_denominator_gap_is_blockwise_rank_one(self, rng):
        # within each RIS block, C_kl - D_kl = u_kl u_kl^H
        est = rand_estimate(3, 2, 2, 3, rng, err=0.2)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.05)
        w = rand_phases(2, 3, rng).normalized
        wb = w.reshape(2, 3)
        qc, qd = q.quad_forms(wb)
        for k in range(2):
            for li in range(2):
                outer = np.outer(q.u_vecs[k, li], q.u_vecs[k, li].conj())
                assert np.allclose(q.c_blocks[k, li] - q.d_blocks[k, li],
                                   outer, atol=1e-10)
            gap = sum(abs(np.vdot(q.u_vecs[k, li], wb[li])) ** 2
                      for li in range(2))
            assert qc[k] - qd[k] == pytest.approx(gap, rel=1e-9)

    @pytest.mark.parametrize("dense", [False, True])
    def test_matches_sandwich_definition(self, rng, dense):
        # Upsilon = LM Hhat^H Q Hhat and Upsilon-bar = LM Hhat^H Qbar_k Hhat
        # contracted directly, against the batched G G^H form
        n, k, l, m = 5, 3, 2, 4
        est = rand_estimate(n, k, l, m, rng, err=0.2, dense=dense)
        f = rand_precoder(n, k, rng)
        q = build_ris_quadratics(est, f, 0.05)
        lm = l * m
        h, fm = est.cascaded_est, f.matrix
        q_mat = fm @ fm.conj().T
        qbar = q_mat[None] - np.einsum("nk,mk->knm", fm, fm.conj())
        theta = lm * theta_matrices(est, f)
        c_ref = lm * np.einsum("klan,ab,klbm->klnm", h.conj(), q_mat, h) + theta
        d_ref = lm * np.einsum("klan,kab,klbm->klnm", h.conj(), qbar, h) + theta
        u_ref = np.sqrt(lm) * np.einsum("klam,ak->klm", h.conj(), fm)
        np.testing.assert_allclose(q.c_blocks, c_ref, rtol=1e-12)
        np.testing.assert_allclose(q.d_blocks, d_ref, rtol=1e-12)
        np.testing.assert_allclose(q.u_vecs, u_ref, rtol=1e-12)
        outer = np.einsum("kla,klb->klab", q.u_vecs, q.u_vecs.conj())
        np.testing.assert_allclose(q.c_blocks - q.d_blocks, outer, rtol=1e-12,
                                   atol=1e-12 * np.max(np.abs(q.c_blocks)))

    def test_objective_matches_phase_form_bound_single_ris(self, rng):
        # with one RIS there are no cross-block terms, so the blockwise
        # quadratic ratio reproduces the rate bound exactly
        est = rand_estimate(3, 2, 1, 4, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        nop = 0.1
        q = build_ris_quadratics(est, f, nop)
        ph = rand_phases(1, 4, rng)
        wb = ph.normalized.reshape(1, 4)
        qc, qd = q.quad_forms(wb)
        lb = lower_bound_phase_form(est, f, ph, nop)
        assert float(np.sum(np.log2(qc / qd))) == pytest.approx(lb, rel=1e-9)


class TestPenalty:
    def test_smooth_max_two_equal_values(self):
        # alpha=1 on (x, x) gives x + ln(2); alpha scales the gap
        assert smooth_max(np.array([0.0, 0.0]), 1.0) == pytest.approx(np.log(2))
        assert smooth_max(np.array([0.0, 0.0]), 2.0) == pytest.approx(
            np.log(2) / 2)

    def test_smooth_min_two_equal_values(self):
        # the lower surrogate is -alpha ln sum exp(-x/alpha): tight as
        # alpha -> 0, matching the softmin weights exp(-x/alpha)
        assert smooth_min(np.array([0.0, 0.0]), 2.0) == pytest.approx(
            -2.0 * np.log(2))

    def test_single_value_exact(self, rng):
        x = float(rng.normal())
        assert smooth_max(np.array([x]), 3.0) == pytest.approx(x)
        assert smooth_min(np.array([x]), 3.0) == pytest.approx(x)

    def test_bounds_and_tightness(self, rng):
        x = rng.normal(size=10)
        assert smooth_max(x, 2.0) >= x.max()
        assert smooth_min(x, 2.0) <= x.min()
        assert abs(smooth_max(x, 50.0) - x.max()) < np.log(10) / 50 + 1e-12
        assert abs(smooth_min(x, 0.02) - x.min()) < 0.02 * np.log(10) + 1e-12

    def test_penalty_weights_are_softmax(self, rng):
        w = rand_phases(2, 4, rng).normalized
        wc, wd = penalty_weights(w)
        x = np.abs(w) ** 2
        assert np.allclose(wc, softmax(ALPHA1 * x))
        assert np.allclose(wd, softmax(-x / ALPHA2))
        assert wc.sum() == pytest.approx(1.0, abs=1e-12)
        assert wd.sum() == pytest.approx(1.0, abs=1e-12)

    def test_penalty_weights_on_spread_moduli(self, rng):
        # unequal moduli, with alpha1 |w_i|^2 far past exp's float64 range
        w = 30.0 * cn(8, rng)
        wc, wd = penalty_weights(w)
        x = np.abs(w) ** 2
        assert ALPHA1 * x.max() > 710
        assert np.allclose(wc, softmax(ALPHA1 * x), rtol=1e-12, atol=1e-300)
        assert np.allclose(wd, softmax(-x / ALPHA2), rtol=1e-12, atol=1e-300)


class TestLambdaRis:
    def test_requires_unit_norm(self, rng):
        est = rand_estimate(3, 2, 1, 2, rng, err=0.1)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        with pytest.raises(ValueError):
            lambda_ris(q, 0.0, 1.0, 2.0 * rand_phases(1, 2, rng).normalized)

    def test_log_form_matches_direct_assembly(self, rng):
        est = rand_estimate(3, 2, 2, 3, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        mu, r_sigma = 5.0, 1.3
        w = rand_phases(2, 3, rng).normalized
        qc, qd = q.quad_forms(w.reshape(2, 3))
        x = np.abs(w) ** 2
        pen = (smooth_max(x, ALPHA1) - smooth_min(x, ALPHA2)) / q.tau
        expected = float(np.sum(np.log2(qc / qd))) / r_sigma - mu * pen
        assert log2_lambda_ris(q, mu, r_sigma, w) == pytest.approx(expected,
                                                                   rel=1e-9)
        assert lambda_ris(q, mu, r_sigma, w) == pytest.approx(2.0 ** expected,
                                                              rel=1e-6)

    def test_mu_zero_reduces_to_bound_single_ris(self, rng):
        est = rand_estimate(3, 2, 1, 4, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        nop = 0.1
        q = build_ris_quadratics(est, f, nop)
        ph = rand_phases(1, 4, rng)
        lb = lower_bound_phase_form(est, f, ph, nop)
        assert log2_lambda_ris(q, 0.0, 1.0, ph.normalized) == \
            pytest.approx(lb, rel=1e-9)


class TestRisGpiMatrices:
    def test_blocks_are_block_diagonal_stacks(self, rng):
        est = rand_estimate(3, 2, 2, 3, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        w = rand_phases(2, 3, rng).normalized
        cbar, dbar = ris_gpi_matrices(q, 2.0, 1.0, w)
        assert cbar.shape == (2, 3, 3) and dbar.shape == (2, 3, 3)
        for mats in (cbar, dbar):
            for li in range(2):
                assert np.allclose(mats[li], mats[li].conj().T, atol=1e-12)

    def test_fixed_point_identity(self, rng):
        # at any w, w^H Cbar w / w^H Dbar w equals the lambda-free ratio
        # sum_k qc_k/qd_k ... verified indirectly: the Rayleigh quotient of
        # the assembled pair reproduces the weighted-sum construction
        est = rand_estimate(3, 2, 2, 3, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        w = rand_phases(2, 3, rng).normalized
        cbar, dbar = ris_gpi_matrices(q, 3.0, 1.0, w)
        wb = w.reshape(2, 3)
        num = sum(np.real(wb[li].conj() @ cbar[li] @ wb[li]) for li in range(2))
        den = sum(np.real(wb[li].conj() @ dbar[li] @ wb[li]) for li in range(2))
        assert num == pytest.approx(den, rel=1e-9)

    def test_mu_zero_matches_weighted_sum_of_quadratics(self, rng):
        est = rand_estimate(3, 2, 2, 3, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        r_sigma = 1.0
        w = rand_phases(2, 3, rng).normalized
        qc, qd = q.quad_forms(w.reshape(2, 3))
        cbar, dbar = ris_gpi_matrices(q, 0.0, r_sigma, w)
        m = 3
        c_ref = np.zeros((2, m, m), dtype=complex)
        d_ref = np.zeros((2, m, m), dtype=complex)
        for k in range(2):
            c_ref += q.c_blocks[k] / qc[k]
            d_ref += q.d_blocks[k] / qd[k]
            c_ref += (q.noise_over_p / qc[k]) * np.eye(m)
            d_ref += (q.noise_over_p / qd[k]) * np.eye(m)
        scale = 1.0 / (r_sigma * np.log(2))
        assert np.allclose(cbar, scale * c_ref, atol=1e-10)
        assert np.allclose(dbar, scale * d_ref, atol=1e-10)


class TestRunGpiRis:
    def _problem(self, rng, n=4, k=2, l=2, m=3, err=0.1, nop=0.1):
        est = rand_estimate(n, k, l, m, rng, err=err)
        f = rand_precoder(n, k, rng)
        return build_ris_quadratics(est, f, nop)

    def test_unit_norm_output(self, rng):
        q = self._problem(rng)
        w0 = rand_phases(2, 3, rng).normalized
        res = run_gpi_ris(q, 0.0, 1.0, w0, GpiSettings())
        assert np.linalg.norm(res.w) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(np.abs(res.phases.stacked) - 1.0) < 1e-12)

    def test_residual_small_after_convergence(self):
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            q = self._problem(rng)
            w0 = rand_phases(2, 3, rng).normalized
            res = run_gpi_ris(q, 0.0, 1.0, w0,
                              GpiSettings(tol=1e-8, max_iters=300))
            # ||Dbar^-1 Cbar w - w|| at the returned w, the lambda-free
            # stationarity residual, from the numpy reference image
            if np.linalg.norm(_image(q, 0.0, 1.0, res.w) - res.w) < 1e-3:
                hits += 1
        assert hits >= 48

    def test_improves_objective_on_most_seeds(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q = self._problem(rng)
            w0 = rand_phases(2, 3, rng).normalized
            before = log2_lambda_ris(q, 1.0, 1.0, w0)
            res = run_gpi_ris(q, 1.0, 1.0, w0, GpiSettings(tol=1e-7, max_iters=200))
            after = log2_lambda_ris(q, 1.0, 1.0, res.w)
            if after >= before - 1e-10:
                wins += 1
        assert wins >= 95

    @needs_compiler
    def test_backends_agree(self, rng, monkeypatch):
        for mu in (0.0, 25.0):
            q = self._problem(rng)
            w0 = rand_phases(2, 3, rng).normalized
            s = GpiSettings(tol=1e-10, max_iters=100)
            res = run_gpi_ris(q, mu, 1.2, w0, s)
            ref = numpy_reference(monkeypatch, q, mu, 1.2, w0, s)
            assert res.iterations == ref.iterations
            assert np.allclose(res.w, ref.w, atol=1e-10)
            assert res.step == pytest.approx(ref.step, rel=1e-6, abs=1e-12)
            # a step above the tolerance means the cap stopped the lane
            assert res.step <= s.tol or res.iterations == s.max_iters

    @needs_compiler
    def test_dense_errors_at_paper_size(self, rng, monkeypatch):
        # N=16, K=4 with a dense error covariance on every link: Theta is a
        # full M x M block added to C in numpy, and the kernel's intake reads
        # every entry of it
        est = rand_estimate(16, 4, 2, 4, rng, err=0.05, dense=True)
        f = Precoder(np.stack([rand_precoder(16, 4, rng).matrix
                               for _ in range(3)]))
        q = build_ris_quadratics(est, f, 0.1)
        theta = theta_matrices(est, f)
        assert np.all(np.abs(theta[..., 0, 1:]) > 0)
        mus = np.array([0.0, 4.0, 30.0])
        w0 = np.stack([rand_phases(2, 4, rng).normalized for _ in range(3)])
        s = GpiSettings(tol=1e-10, max_iters=100)
        res = run_gpi_ris(q, mus, 1.4, w0, s)
        ref = numpy_reference(monkeypatch, q, mus, 1.4, w0, s)
        for i in range(3):
            assert np.allclose(res.w[i], ref.w[i], atol=1e-10)
            assert res.step[i] == pytest.approx(ref.step[i], rel=1e-6,
                                                abs=1e-12)
        assert res.iterations == ref.iterations

    @pytest.mark.parametrize("compiled", [
        pytest.param(True, marks=needs_compiler), False],
        ids=["compiled", "numpy"])
    def test_step_definition(self, rng, monkeypatch, compiled):
        # the reported step is the last one the loop took: from the same
        # start, the iterates capped at T and at T - 1 are w_T and w_{T-1},
        # and the step is ||w_T - w_{T-1}|| (no sign freedom here)
        q = self._problem(rng)
        w0 = rand_phases(2, 3, rng).normalized
        if not compiled:
            monkeypatch.setattr(_kernel, "find_compiler", lambda: None)
        cap = 4
        res = run_gpi_ris(q, 25.0, 1.2, w0, GpiSettings(tol=1e-14,
                                                        max_iters=cap))
        prev = run_gpi_ris(q, 25.0, 1.2, w0, GpiSettings(tol=1e-14,
                                                         max_iters=cap - 1))
        assert res.iterations == cap and res.step > 1e-14
        assert res.step == pytest.approx(np.linalg.norm(res.w - prev.w),
                                         rel=1e-6, abs=1e-12)
        # a lane stopped by the tolerance reports a step at or below it
        loose = run_gpi_ris(q, 25.0, 1.2, w0, GpiSettings(tol=1e-2,
                                                          max_iters=100))
        assert loose.iterations < 100 and loose.step <= 1e-2

    def test_without_compiler_auto_falls_back(self, rng, monkeypatch):
        monkeypatch.setattr(_kernel, "find_compiler", lambda: None)
        _kernel._library.cache_clear()
        q = self._problem(rng)
        w0 = rand_phases(2, 3, rng).normalized
        s = GpiSettings(tol=1e-10, max_iters=100)
        res = run_gpi_ris(q, 0.0, 1.0, w0, s)
        w_ref, iters_ref, step_ref = fixed_point(
            lambda x: _image(q, 0.0, 1.0, x), w0 / np.linalg.norm(w0, axis=-1),
            s)
        assert res.iterations == iters_ref
        assert np.array_equal(res.w, w_ref)
        assert res.step == step_ref
        with pytest.raises(RuntimeError, match="no C compiler"):
            _kernel.ris_loop(q.c_blocks, q.u_vecs, w0[None].copy(), 0.0,
                             q.noise_over_p,
                             *kernel_args(1.0))

    @staticmethod
    def _indefinite_problem():
        """K=1, L=2 with a negative definite first D block.

        Every quadratic form stays positive, so only the block solve of the
        fixed-point step can notice that Dbar is not positive definite.
        """
        d_blocks = np.stack([-0.5 * np.eye(2), 10.0 * np.eye(2)])[None] + 0j
        u_vecs = np.ones((1, 2, 2), dtype=complex)
        c_blocks = d_blocks + np.einsum("kla,klb->klab", u_vecs, u_vecs.conj())
        q = RisQuadratics(c_blocks=c_blocks, noise_over_p=0.1, u_vecs=u_vecs)
        assert np.array_equal(q.d_blocks, d_blocks)
        w0 = np.full(4, 0.5, dtype=complex)
        qc, qd = q.quad_forms(w0.reshape(2, 2))
        assert np.all(qc > 0) and np.all(qd > 0)
        return q, w0

    @needs_compiler
    def test_indefinite_block_raises_compiled(self):
        q, w0 = self._indefinite_problem()
        with pytest.raises(np.linalg.LinAlgError):
            run_gpi_ris(q, 0.0, 1.0, w0, GpiSettings())

    def test_indefinite_block_raises_numpy(self, monkeypatch):
        monkeypatch.setattr(_kernel, "find_compiler", lambda: None)
        q, w0 = self._indefinite_problem()
        with pytest.raises(np.linalg.LinAlgError, match="block 0"):
            run_gpi_ris(q, 0.0, 1.0, w0, GpiSettings())

    def test_fixed_point_exits_in_one_iteration(self, rng):
        # run to convergence, then restart from the converged point
        q = self._problem(rng)
        w0 = rand_phases(2, 3, rng).normalized
        res = run_gpi_ris(q, 0.0, 1.0, w0, GpiSettings(tol=1e-12, max_iters=500))
        again = run_gpi_ris(q, 0.0, 1.0, res.w, GpiSettings(tol=1e-6))
        assert again.iterations == 1

    def test_penalty_reduces_modulus_spread(self, rng):
        # with a strong regularizer the converged point is closer to unit
        # modulus than the unregularized solution (median over seeds is
        # checked at the orchestration level; here a direct pairing)
        better = 0
        for seed in range(20):
            r = np.random.default_rng(seed + 1000)
            q = self._problem(r, err=0.2)
            w0 = rand_phases(2, 3, r).normalized
            s = GpiSettings(tol=1e-8, max_iters=300)
            free = run_gpi_ris(q, 0.0, 1.0, w0, s)
            tight = run_gpi_ris(q, 100.0, 1.0, w0, s)
            if tight.nmse <= free.nmse + 1e-12:
                better += 1
        assert better >= 14

    def test_nmse_field_matches_metric(self, rng):
        q = self._problem(rng)
        res = run_gpi_ris(q, 0.0, 1.0, rand_phases(2, 3, rng).normalized,
                          GpiSettings())
        assert res.nmse == pytest.approx(nmse_unit_modulus(res.w), rel=1e-12)

    def test_loop_seconds_nonnegative(self, rng):
        q = self._problem(rng)
        res = run_gpi_ris(q, 0.0, 1.0, rand_phases(2, 3, rng).normalized,
                          GpiSettings())
        assert res.loop_seconds >= 0.0


class TestKernelDirect:
    @needs_compiler
    def test_prepare_round_trip(self, rng):
        est = rand_estimate(4, 2, 2, 3, rng, err=0.1)
        f = rand_precoder(4, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        w0 = rand_phases(2, 3, rng).normalized

        def run(w, max_iters):
            return _kernel.ris_loop(q.c_blocks, q.u_vecs, w, 10.0,
                                    q.noise_over_p,
                                    *kernel_args(1.1, max_iters=max_iters))

        # the split re/im layout unpacks to the iterate it was given
        w = w0[None].copy()
        it, _, _ = run(w, 0)
        assert it[0] == 0 and np.array_equal(w[0], w0)
        w_a, w_b = w0[None].copy(), w0[None].copy()
        it_a, _, seconds = run(w_a, 200)
        it_b, _, _ = run(w_b, 200)
        assert it_a[0] == it_b[0] > 0 and seconds > 0.0
        assert np.allclose(w_a, w_b, atol=1e-13)

    @staticmethod
    def _lanes(rng, l, m, n_lanes):
        """Distinct-mu lanes of one estimate, each with its own precoder;
        lane 0 (mu=0) starts at its fixed point, so it exits after one
        step, and lanes with a strong penalty run to the iteration cap."""
        est = rand_estimate(6, 3, l, m, rng, err=0.1)
        f = Precoder(np.stack([rand_precoder(6, 3, rng).matrix
                               for _ in range(n_lanes)]))
        q = build_ris_quadratics(est, f, 0.1)
        mus = np.concatenate([[0.0], rng.permutation(
            np.linspace(0.5, 60.0, n_lanes - 1))])
        w0 = np.stack([rand_phases(l, m, rng).normalized
                       for _ in range(n_lanes)])
        _kernel.ris_loop(q.c_blocks[0], q.u_vecs[0], w0[:1], 0.0, 0.1,
                         *kernel_args(1.3, tol=1e-13, max_iters=500))
        return q, mus, w0

    @staticmethod
    def _alone(c, u, w0, mu, **kw):
        """One lane's (count, step, w) from a call with that lane alone."""
        w = w0[None].copy()
        it, step, _ = _kernel.ris_loop(c[None], u[None], w, mu, 0.1,
                                       *kernel_args(1.3, **kw))
        return it[0], step[0], w[0]

    @needs_compiler
    @pytest.mark.parametrize("l, m", [(8, 8), (3, 5), (5, 4), (16, 4)])
    def test_every_lane_equals_its_single_lane_call(self, rng, l, m):
        # the lanes advance in groups of G slots, exit at ragged times and
        # hand their slots to queued lanes: none of it may move a lane's bits.
        # At L=5 a full group's 30 columns are padded to 32; at L=3 and 5 a
        # lane's columns straddle two strips, and at L=16 they fill two
        caps = dict(tol=1e-2, max_iters=40)
        g = _kernel.ris_group(1 << 30, l)     # the largest group at this L
        for n_lanes in (1, 3, g, g + 1, 2 * g + 3, 30):
            q, mus, w0 = self._lanes(rng, l, m, n_lanes)
            w = w0.copy()
            iters, step, _ = _kernel.ris_loop(q.c_blocks, q.u_vecs, w, mus,
                                              0.1, *kernel_args(1.3, **caps))
            for i in range(n_lanes):
                it_one, step_one, w_one = self._alone(
                    q.c_blocks[i], q.u_vecs[i], w0[i], mus[i], **caps)
                assert iters[i] == it_one > 0 and step[i] == step_one
                assert np.array_equal(w[i], w_one)
            assert iters[0] == 1
            # a full group of three lanes or more (at L=16, G=2) holds one
            # that runs to the cap and three counts
            if n_lanes >= max(g, 3):
                assert iters.max() == caps["max_iters"]
                assert len(set(iters)) > 2

    @staticmethod
    def _indefinite_lane(k, l, m):
        """Blocks of K users whose first D block is negative definite while
        every quadratic form stays positive at the uniform iterate (the
        pattern of TestRunGpiRis._indefinite_problem at any size)."""
        d = np.stack([-0.5 * np.eye(m)] + [10.0 * np.eye(m)] * (l - 1)) + 0j
        u = np.ones((k, l, m), dtype=complex)
        c = d[None] + u[..., :, None] * u[..., None, :].conj()
        return c, u, np.full(l * m, 1.0 / np.sqrt(l * m), dtype=complex)

    @needs_compiler
    def test_indefinite_lane_is_isolated(self, rng):
        # lane 1, and lane g+1 (a refill), have a negative definite D block
        g = _kernel.ris_group(1 << 30, 2)
        for n_lanes in (3, g + 3):
            q, mus, w0 = self._lanes(rng, 2, 3, n_lanes)
            bad = [p for p in (1, g + 1) if p < n_lanes]
            c, u = q.c_blocks.copy(), q.u_vecs.copy()
            for p in bad:
                c[p], u[p], w0[p] = self._indefinite_lane(3, 2, 3)
                mus[p] = 0.0
            w = w0.copy()
            counts, step, _ = _kernel.ris_loop(c, u, w, mus, 0.1,
                                               *kernel_args(1.3, max_iters=100))
            assert [p for p in range(n_lanes) if counts[p] < 0] == bad
            for p in range(n_lanes):
                # the failed lanes keep their iterates, the others are as
                # if alone
                it_one, step_one, w_one = self._alone(
                    c[p], u[p], w0[p], mus[p], max_iters=100)
                assert counts[p] == it_one and np.array_equal(w[p], w_one)
                if p in bad:
                    assert np.array_equal(w[p], w0[p])
                else:
                    assert step[p] == step_one

    @needs_compiler
    def test_broadcast_lanes_equal_their_materialized_copy(self, rng):
        # the numpy round's shared first stage reaches the kernel as a
        # stride-0 view, over enough lanes to refill and then compact the
        # group
        est = rand_estimate(6, 3, 4, 4, rng, err=0.1)
        q = build_ris_quadratics(est, rand_precoder(6, 3, rng), 0.1)
        n_lanes = 2 * _kernel.ris_group(1 << 30, 4) + 3
        views = [np.broadcast_to(x, (n_lanes,) + x.shape)
                 for x in (q.c_blocks, q.u_vecs)]
        assert views[0].strides[0] == views[1].strides[0] == 0
        copies = [np.ascontiguousarray(v) for v in views]
        mus = rng.permutation(np.linspace(0.0, 40.0, n_lanes))
        w0 = np.stack([rand_phases(4, 4, rng).normalized
                       for _ in range(n_lanes)])
        out = []
        for c, u in (views, copies):
            w = w0.copy()
            iters, step, _ = _kernel.ris_loop(c, u, w, mus, 0.1,
                                              *kernel_args(1.3, tol=1e-2,
                                                           max_iters=40))
            out.append((iters, step, w))
        assert len(set(out[0][0])) > 2    # ragged exits
        for a, b in zip(*out):
            assert np.array_equal(a, b)

    @needs_compiler
    def test_group_scratch_stays_small(self):
        # a larger group or a new scratch array must not silently inflate
        # the RSS: at paper size (K=4, L=2, M=64, 30 mu lanes) the scratch
        # stays within 8 MB, as does a single lane's there, whose rows are
        # padded from 2 to 8 columns, and at L=8, M=8 within 1 MB
        work = _kernel._library().gpris_ris_loop_work
        assert 8 * work(_kernel.ris_group(30, 2), 4, 64, 2) <= 8e6
        assert 8 * work(_kernel.ris_group(1, 2), 4, 64, 2) <= 8e6
        assert 8 * work(_kernel.ris_group(30, 8), 4, 8, 8) <= 1e6

    @needs_compiler
    def test_rejects_mismatched_shapes(self, rng):
        q = build_ris_quadratics(rand_estimate(3, 2, 2, 2, rng),
                                 rand_precoder(3, 2, rng), 0.1)
        args = (0.0, 0.1, *kernel_args(1.0))
        w = rand_phases(2, 2, rng).normalized[None]
        with pytest.raises(ValueError, match="disagree"):
            _kernel.ris_loop(q.c_blocks, q.u_vecs, np.tile(w, (1, 2)), *args)
        with pytest.raises(ValueError, match="disagree"):
            _kernel.ris_loop(q.c_blocks, q.u_vecs[:, :1], w.copy(), *args)
        with pytest.raises(ValueError, match="disagree"):
            _kernel.ris_loop(q.c_blocks, q.u_vecs, w.astype(np.complex64),
                             *args)

    @staticmethod
    def _stub_compiler(tmp_path):
        """A compiler that writes an empty file at its -o path: the caching
        is under test, not the compile."""
        stub = tmp_path / "stub-cc"
        stub.write_text('#!/bin/sh\n'
                        'while [ "$#" -gt 1 ] && [ "$1" != -o ]; do shift; done\n'
                        '[ "$1" = -o ] && : > "$2"\n')
        stub.chmod(0o755)
        return str(stub)

    def test_build_is_cached_per_host(self, tmp_path, monkeypatch):
        cache = tmp_path / "cache"
        cache.mkdir()
        monkeypatch.setattr(_kernel, "_cache_dir", lambda: cache)
        real_run = _kernel.subprocess.run
        compiler = self._stub_compiler(tmp_path)
        # an older build of the library
        (cache / "_kernel-5c0dafe8825ab41e.so").write_bytes(b"")
        lib = _kernel._build(compiler)
        # written under its final name only, no temporary left behind, and
        # the older library removed
        assert [p.name for p in cache.iterdir()] == [lib.name]

        def no_compile(*args, **kwargs):
            raise AssertionError("compiler invoked")
        monkeypatch.setattr(_kernel.subprocess, "run", no_compile)
        assert _kernel._build(compiler) == lib
        # a build tuned for one CPU is never reused on another
        monkeypatch.setattr(_kernel, "_host_cpu", lambda: "another cpu")
        with pytest.raises(AssertionError, match="compiler invoked"):
            _kernel._build(compiler)
        # the rebuild for the other CPU leaves no stale library behind
        monkeypatch.setattr(_kernel.subprocess, "run", real_run)
        other = _kernel._build(compiler)
        assert other != lib
        assert [p.name for p in cache.iterdir()] == [other.name]

    def test_read_only_package_cache_falls_back_to_private_temp(
            self, tmp_path, monkeypatch):
        pycache = _kernel._DIR / "__pycache__"
        real_access = os.access
        monkeypatch.setattr(_kernel.os, "access", lambda path, mode: (
            Path(path) != pycache and real_access(path, mode)))
        monkeypatch.setattr(_kernel.tempfile, "gettempdir",
                            lambda: str(tmp_path))
        compiler = self._stub_compiler(tmp_path)
        private = tmp_path / f"gpris-{os.getuid()}"
        lib = _kernel._build(compiler)
        assert lib.parent == private and lib.exists()
        assert private.stat().st_mode & 0o777 == 0o700
        # a private directory that others can write is refused
        private.chmod(0o770)
        with pytest.raises(OSError, match="no writable cache directory"):
            _kernel._build(compiler)

    def test_import_builds_nothing(self):
        code = ("import gpris, gpris._kernel as k; "
                "print(k._library.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(gpris.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"

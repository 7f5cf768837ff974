import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from scipy.linalg import block_diag
from scipy.special import softmax

from conftest import cn, rand_estimate, rand_phases, rand_precoder
import gpris
from gpris import _kernel
from gpris.gpi_precoder import GpiSettings
from gpris.gpi_ris import (RegularizerSettings, RisQuadratics,
                           build_ris_quadratics, default_tau, lambda_ris,
                           _numpy_loop, log2_lambda_ris, penalty_weights,
                           ris_gpi_matrices, run_gpi_ris, smooth_max,
                           smooth_min)
from gpris.metrics import (PhaseShifts, Precoder, lower_bound_phase_form,
                           nmse_unit_modulus, theta_matrices)

# the compiled loop is built on first use with the C compiler found on PATH
needs_compiler = pytest.mark.skipif(not _kernel.available(),
                                    reason="no C compiler on PATH")


class TestRegularizerSettings:
    def test_defaults(self):
        r = RegularizerSettings()
        assert r.mu == 0.0 and r.tau == 1.0 and r.alpha1 == 2.0

    @pytest.mark.parametrize("kwargs", [{"mu": -1.0}, {"tau": 0.0},
                                        {"r_sigma": 0.0}, {"alpha1": 0.0},
                                        {"alpha2": -2.0}])
    def test_rejects_bad_values(self, kwargs):
        with pytest.raises(ValueError):
            RegularizerSettings(**kwargs)

    def test_default_tau(self):
        assert default_tau(2, 8) == pytest.approx(1.0 / 16)


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
        reg = RegularizerSettings(mu=1.0, tau=0.125, alpha1=2.0, alpha2=3.0)
        wc, wd = penalty_weights(w, reg)
        x = np.abs(w) ** 2
        assert np.allclose(wc, softmax(2.0 * x))
        assert np.allclose(wd, softmax(-x / 3.0))
        assert wc.sum() == pytest.approx(1.0, abs=1e-12)
        assert wd.sum() == pytest.approx(1.0, abs=1e-12)


class TestLambdaRis:
    def test_requires_unit_norm(self, rng):
        est = rand_estimate(3, 2, 1, 2, rng, err=0.1)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        with pytest.raises(ValueError):
            lambda_ris(q, RegularizerSettings(), 2.0 * rand_phases(1, 2, rng).normalized)

    def test_log_form_matches_direct_assembly(self, rng):
        est = rand_estimate(3, 2, 2, 3, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        reg = RegularizerSettings(mu=5.0, tau=default_tau(2, 3), r_sigma=1.3)
        w = rand_phases(2, 3, rng).normalized
        qc, qd = q.quad_forms(w.reshape(2, 3))
        x = np.abs(w) ** 2
        pen = (smooth_max(x, reg.alpha1) - smooth_min(x, reg.alpha2)) / reg.tau
        expected = float(np.sum(np.log2(qc / qd))) / reg.r_sigma - reg.mu * pen
        assert log2_lambda_ris(q, reg, w) == pytest.approx(expected, rel=1e-9)
        assert lambda_ris(q, reg, w) == pytest.approx(2.0 ** expected, rel=1e-6)

    def test_mu_zero_reduces_to_bound_single_ris(self, rng):
        est = rand_estimate(3, 2, 1, 4, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        nop = 0.1
        q = build_ris_quadratics(est, f, nop)
        ph = rand_phases(1, 4, rng)
        lb = lower_bound_phase_form(est, f, ph, nop)
        assert log2_lambda_ris(q, RegularizerSettings(), ph.normalized) == \
            pytest.approx(lb, rel=1e-9)


class TestRisGpiMatrices:
    def test_blocks_are_block_diagonal_stacks(self, rng):
        est = rand_estimate(3, 2, 2, 3, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        reg = RegularizerSettings(mu=2.0, tau=default_tau(2, 3))
        w = rand_phases(2, 3, rng).normalized
        cbar, dbar = ris_gpi_matrices(q, reg, w)
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
        reg = RegularizerSettings(mu=3.0, tau=default_tau(2, 3))
        w = rand_phases(2, 3, rng).normalized
        cbar, dbar = ris_gpi_matrices(q, reg, w)
        wb = w.reshape(2, 3)
        num = sum(np.real(wb[li].conj() @ cbar[li] @ wb[li]) for li in range(2))
        den = sum(np.real(wb[li].conj() @ dbar[li] @ wb[li]) for li in range(2))
        assert num == pytest.approx(den, rel=1e-9)

    def test_mu_zero_matches_weighted_sum_of_quadratics(self, rng):
        est = rand_estimate(3, 2, 2, 3, rng, err=0.15)
        f = rand_precoder(3, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        reg = RegularizerSettings(mu=0.0)
        w = rand_phases(2, 3, rng).normalized
        qc, qd = q.quad_forms(w.reshape(2, 3))
        cbar, dbar = ris_gpi_matrices(q, reg, w)
        m = 3
        c_ref = np.zeros((2, m, m), dtype=complex)
        d_ref = np.zeros((2, m, m), dtype=complex)
        for k in range(2):
            c_ref += q.c_blocks[k] / qc[k]
            d_ref += q.d_blocks[k] / qd[k]
            c_ref += (q.noise_over_p / qc[k]) * np.eye(m)
            d_ref += (q.noise_over_p / qd[k]) * np.eye(m)
        scale = 1.0 / (reg.r_sigma * np.log(2))
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
        res = run_gpi_ris(q, RegularizerSettings(), w0, GpiSettings())
        assert np.linalg.norm(res.w) == pytest.approx(1.0, abs=1e-12)
        assert np.all(np.abs(np.abs(res.phases.stacked) - 1.0) < 1e-12)

    def test_residual_small_after_convergence(self):
        hits = 0
        for seed in range(50):
            rng = np.random.default_rng(seed)
            q = self._problem(rng)
            w0 = rand_phases(2, 3, rng).normalized
            res = run_gpi_ris(q, RegularizerSettings(), w0,
                              GpiSettings(tol=1e-8, max_iters=300))
            if res.residual < 1e-3:
                hits += 1
        assert hits >= 48

    def test_improves_objective_on_most_seeds(self):
        wins = 0
        for seed in range(100):
            rng = np.random.default_rng(seed)
            q = self._problem(rng)
            reg = RegularizerSettings(mu=1.0, tau=default_tau(2, 3))
            w0 = rand_phases(2, 3, rng).normalized
            before = log2_lambda_ris(q, reg, w0)
            res = run_gpi_ris(q, reg, w0, GpiSettings(tol=1e-7, max_iters=200))
            after = log2_lambda_ris(q, reg, res.w)
            if after >= before - 1e-10:
                wins += 1
        assert wins >= 95

    @needs_compiler
    def test_backends_agree(self, rng):
        for mu in (0.0, 25.0):
            q = self._problem(rng)
            reg = RegularizerSettings(mu=mu, tau=default_tau(2, 3),
                                      r_sigma=1.2)
            w0 = rand_phases(2, 3, rng).normalized
            s = GpiSettings(tol=1e-10, max_iters=100)
            res = run_gpi_ris(q, reg, w0, s)
            w_ref, iters_ref, res_ref = _numpy_loop(q, reg,
                                                    w0 / np.linalg.norm(w0), s)
            assert res.iterations == iters_ref
            assert np.allclose(res.w, w_ref, atol=1e-10)
            assert res.residual == pytest.approx(res_ref, rel=1e-6, abs=1e-12)

    def test_without_compiler_auto_falls_back(self, rng, monkeypatch):
        monkeypatch.setattr(_kernel, "find_compiler", lambda: None)
        _kernel._library.cache_clear()
        q = self._problem(rng)
        w0 = rand_phases(2, 3, rng).normalized
        s = GpiSettings(tol=1e-10, max_iters=100)
        res = run_gpi_ris(q, RegularizerSettings(), w0, s)
        w_ref, iters_ref, res_ref = _numpy_loop(q, RegularizerSettings(),
                                                w0 / np.linalg.norm(w0), s)
        assert res.iterations == iters_ref
        assert np.array_equal(res.w, w_ref)
        assert res.residual == res_ref
        with pytest.raises(RuntimeError, match="no C compiler"):
            _kernel.Prepared(q.c_blocks, q.u_vecs, w0)

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
            run_gpi_ris(q, RegularizerSettings(), w0, GpiSettings())

    def test_indefinite_block_raises_numpy(self, monkeypatch):
        monkeypatch.setattr(_kernel, "find_compiler", lambda: None)
        q, w0 = self._indefinite_problem()
        with pytest.raises(np.linalg.LinAlgError, match="block 0"):
            run_gpi_ris(q, RegularizerSettings(), w0, GpiSettings())

    def test_fixed_point_exits_in_one_iteration(self, rng):
        # run to convergence, then restart from the converged point
        q = self._problem(rng)
        reg = RegularizerSettings()
        w0 = rand_phases(2, 3, rng).normalized
        res = run_gpi_ris(q, reg, w0, GpiSettings(tol=1e-12, max_iters=500))
        again = run_gpi_ris(q, reg, res.w, GpiSettings(tol=1e-6))
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
            free = run_gpi_ris(q, RegularizerSettings(), w0, s)
            reg = RegularizerSettings(mu=100.0, tau=default_tau(2, 3))
            tight = run_gpi_ris(q, reg, w0, s)
            if tight.nmse <= free.nmse + 1e-12:
                better += 1
        assert better >= 14

    def test_nmse_field_matches_metric(self, rng):
        q = self._problem(rng)
        res = run_gpi_ris(q, RegularizerSettings(),
                          rand_phases(2, 3, rng).normalized, GpiSettings())
        assert res.nmse == pytest.approx(nmse_unit_modulus(res.w), rel=1e-12)

    def test_loop_seconds_nonnegative(self, rng):
        q = self._problem(rng)
        res = run_gpi_ris(q, RegularizerSettings(),
                          rand_phases(2, 3, rng).normalized, GpiSettings())
        assert res.loop_seconds >= 0.0


class TestKernelDirect:
    @needs_compiler
    def test_prepare_round_trip(self, rng):
        est = rand_estimate(4, 2, 2, 3, rng, err=0.1)
        f = rand_precoder(4, 2, rng)
        q = build_ris_quadratics(est, f, 0.1)
        w0 = rand_phases(2, 3, rng).normalized
        reg = RegularizerSettings(mu=10.0, tau=default_tau(2, 3), r_sigma=1.1)
        args = (q.noise_over_p, 1.0 / (reg.r_sigma * np.log(2)), reg.mu,
                reg.tau, reg.alpha1, reg.alpha2, 1e-9, 200)
        prep_a = _kernel.Prepared(q.c_blocks, q.u_vecs, w0)
        # the split re/im layout unpacks to the iterate it was given
        assert np.array_equal(prep_a.w(), w0)
        it_a = prep_a.bind(*args)()
        prep_b = _kernel.Prepared(q.c_blocks, q.u_vecs, w0)
        it_b = prep_b.bind(*args)()
        assert it_a == it_b > 0
        assert np.allclose(prep_a.w(), prep_b.w(), atol=1e-13)

    @needs_compiler
    def test_indefinite_lane_is_isolated(self, rng):
        # lane 1 has a negative definite D block; lanes 0 and 2 are regular
        bad, w_bad = TestRunGpiRis._indefinite_problem()
        goods, ws = [], []
        for _ in range(2):
            est = rand_estimate(3, 1, 2, 2, rng, err=0.1)
            goods.append(build_ris_quadratics(est, rand_precoder(3, 1, rng), 0.1))
            ws.append(rand_phases(2, 2, rng).normalized)
        quads, w0 = [goods[0], bad, goods[1]], [ws[0], w_bad, ws[1]]
        mus = np.array([0.0, 0.0, 5.0])
        shared = (0.1, 1.0 / np.log(2), default_tau(2, 2), 2.0, 2.0, 1e-9, 100)

        def args(mu):
            return shared[:2] + (mu,) + shared[2:]

        prep = _kernel.Prepared(*(np.stack([getattr(q, name) for q in quads])
                                  for name in ("c_blocks", "u_vecs")),
                                np.stack(w0))
        counts = prep.bind(*args(mus))()
        assert counts[1] < 0
        for i in (0, 2):
            one = _kernel.Prepared(quads[i].c_blocks, quads[i].u_vecs, w0[i])
            alone = one.bind(*args(mus[i]))()
            assert type(alone) is int
            assert counts[i] == alone > 0
            assert np.array_equal(prep.w()[i], one.w())

    @needs_compiler
    def test_build_is_cached_per_host(self, tmp_path, monkeypatch):
        monkeypatch.setattr(_kernel, "_cache_dirs", lambda: iter([tmp_path]))
        real_run = _kernel.subprocess.run
        compiler = _kernel.find_compiler()
        lib = _kernel._build(compiler)
        # written under its final name only, no temporary left behind
        assert [p.name for p in tmp_path.iterdir()] == [lib.name]

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
        assert [p.name for p in tmp_path.iterdir()] == [other.name]

    def test_import_builds_nothing(self):
        code = ("import gpris, gpris._kernel as k; "
                "print(k._library.cache_info().currsize)")
        env = dict(os.environ, PYTHONPATH=str(Path(gpris.__file__).parents[1]))
        out = subprocess.run([sys.executable, "-c", code], env=env,
                             capture_output=True, text=True, check=True)
        assert out.stdout.strip() == "0"

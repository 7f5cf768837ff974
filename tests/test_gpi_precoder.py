import numpy as np
import pytest

from conftest import cn, rand_estimate, rand_phases, rand_precoder, rand_psd
from gpris import _kernel, gpi_precoder
from gpris.gpi_precoder import (GpiSettings, PrecoderQuadratics, _as_matrix,
                                build_precoder_quadratics, fixed_point,
                                gpi_matrices, run_gpi_precoder)
from gpris.gpi_ris import block_diag_solve
from gpris.metrics import PhaseShifts, lower_bound_sum_se

needs_compiler = pytest.mark.skipif(not _kernel.available(),
                                    reason="no C compiler for the compiled loop")


def dense_matrix(q, k, with_signal):
    """Dense NK x NK A_k (with_signal=True) or B_k of unbatched quadratics."""
    n, nk = q.n, q.n * q.k
    a = np.kron(np.eye(q.k), q.g_blocks[k]) + q.noise_over_p * np.eye(nk)
    if not with_signal:
        sig = np.outer(q.h_hat[k], q.h_hat[k].conj())
        a[k * n:(k + 1) * n, k * n:(k + 1) * n] -= sig
    return a


def lambda_bs(q: PrecoderQuadratics, f_mat: np.ndarray) -> float:
    """Product of Rayleigh quotients, the generalized eigenvalue at f."""
    qa, qb = q.quad_forms(f_mat)
    if np.any(qb <= 0):
        raise FloatingPointError("vanishing denominator quadratic form")
    return float(np.prod(qa / qb))


def dense_image(q, x):
    """Bbar^-1 Abar x and lambda_BS at the stacked x, from the dense NK x NK
    A_k and B_k: Abar = lambda sum_k A_k / x^H A_k x, Bbar = sum_k B_k / x^H B_k x,
    so Bbar = blkdiag(Bbar_k) is solved as one KN x KN system."""
    a_mats = [dense_matrix(q, k, with_signal=True) for k in range(q.k)]
    b_mats = [dense_matrix(q, k, with_signal=False) for k in range(q.k)]
    qa = np.array([np.real(x.conj() @ a @ x) for a in a_mats])
    qb = np.array([np.real(x.conj() @ b @ x) for b in b_mats])
    lam = np.prod(qa / qb)
    abar = lam * sum(a / v for a, v in zip(a_mats, qa))
    bbar = sum(b / v for b, v in zip(b_mats, qb))
    return np.linalg.solve(bbar, abar @ x), lam


def isotropic(h, xi, noise_over_p):
    """Quadratics of the channels h (K, N) under the errors Xi_k = xi_k I."""
    g = h[:, :, None] * h[:, None, :].conj()
    return PrecoderQuadratics(h, g + xi[:, None, None] * np.eye(h.shape[1]),
                              noise_over_p, xi)


def indefinite_problem(bad_block):
    """N=2, K=3 isotropic quadratics whose Bbar has exactly the blocks >=
    bad_block not positive definite at f0, while every quadratic form stays
    positive.

    User 0 has no channel and xi_0 = 0; xi_1 = xi_2 = -1 push
    c = sum_k (xi_k + sigma^2/P) / qb_k below 0, so Bbar_j = sum_{k != j}
    h_k h_k^H / qb_k + c I is positive definite only where the other users'
    signals lift both directions.  Users 1 and 2 are orthogonal for
    bad_block=1, so only Bbar_0 holds both; for bad_block=0 they are
    parallel, and even the common block B fails.
    """
    h = np.array([[0, 0], [0, 2], [2, 0]] if bad_block
                 else [[0, 0], [2, 0], [2, 0]], dtype=complex)
    q = isotropic(h, np.array([0.0, -1.0, -1.0]), 0.1)
    f0 = np.full(6, 6 ** -0.5, dtype=complex)
    qa, qb = q.quad_forms(f0.reshape(3, 2).T)
    assert np.all(qa > 0) and np.all(qb > 0)
    return q, f0


def random_quadratics(rng, dense, n=5, k=3):
    est = rand_estimate(n, k, 2, 2, rng, err=0.2, dense=dense)
    return build_precoder_quadratics(est, rand_phases(2, 2, rng), 0.1)


@pytest.fixture(params=[False, True], ids=["isotropic", "dense"])
def quad(request, rng):
    return random_quadratics(rng, request.param)


def without_compiler(monkeypatch):
    monkeypatch.setattr(_kernel, "find_compiler", lambda: None)
    _kernel._library.cache_clear()


def _numpy_loop_ran(*args, **kwargs):
    raise AssertionError("the numpy loop ran where the compiled one should")


def use_backend(monkeypatch, compiled):
    """Run the rest of the test on the named path: the numpy loop raises on
    the compiled one, and the compiler is hidden on the numpy one."""
    if compiled:
        monkeypatch.setattr(gpi_precoder, "fixed_point", _numpy_loop_ran)
    else:
        without_compiler(monkeypatch)


def numpy_reference(monkeypatch, *args):
    """``run_gpi_precoder(*args)`` on the numpy fallback, the compiler
    hidden for this call only."""
    with monkeypatch.context() as m:
        without_compiler(m)
        return run_gpi_precoder(*args)


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


class TestFixedPoint:
    def test_sign_flip_is_one_step_only_when_signed(self):
        # x -> -x is the same point up to sign: the signed step is 0, the
        # plain one 2 at every step, so only the cap stops it
        x0 = np.array([0.6, 0.8j])
        s = GpiSettings(tol=1e-12, max_iters=7)
        x, steps, step = fixed_point(lambda x: -x, x0, s, signed=True)
        assert steps == 1 and step == 0.0
        assert np.allclose(x, -x0, rtol=0, atol=1e-15)
        x, steps, step = fixed_point(lambda x: -x, x0, s)
        assert steps == 7 and step == pytest.approx(2.0, rel=1e-15)
        assert np.allclose(x, -x0, rtol=0, atol=1e-15)


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

    @pytest.mark.parametrize("compiled", [
        pytest.param(True, marks=needs_compiler), False],
        ids=["compiled", "numpy"])
    def test_step_definition(self, rng, monkeypatch, compiled):
        # the reported step is the last one the loop took: from the same
        # start, the iterates capped at T and at T - 1 are f_T and f_{T-1},
        # and the step is min(||f_T - f_{T-1}||, ||f_T + f_{T-1}||)
        est = rand_estimate(4, 2, 2, 2, rng, err=0.1)
        ph = rand_phases(2, 2, rng)
        q = build_precoder_quadratics(est, ph, 0.1)
        f0 = rand_precoder(4, 2, rng).stacked
        use_backend(monkeypatch, compiled)
        cap = 4
        f_t, iters, step = run_gpi_precoder(q, f0, GpiSettings(tol=1e-14,
                                                               max_iters=cap))
        f_prev, _, _ = run_gpi_precoder(q, f0, GpiSettings(tol=1e-14,
                                                           max_iters=cap - 1))
        assert iters == cap and step > 1e-14
        assert step == pytest.approx(min(np.linalg.norm(f_t - f_prev),
                                         np.linalg.norm(f_t + f_prev)),
                                     rel=1e-6, abs=1e-12)

    @needs_compiler
    @pytest.mark.parametrize("n, k", [(5, 3), (8, 1), (12, 5), (20, 6)])
    def test_backends_agree(self, rng, monkeypatch, n, k):
        # three lanes of the same isotropic quadratics from different starts
        # (dense ones take the numpy loop, see
        # test_dense_errors_take_the_numpy_loop), their blocks formed only
        # when the numpy reference reads them.  The compiled loop pads its N
        # rows and 2K right-hand sides to whole strips of 8: N = 5, 12 and
        # 20 leave padding rows, 2K = 2, 10 and 12 padding columns
        quad = random_quadratics(rng, False, n, k)
        lanes = PrecoderQuadratics(np.stack([quad.h_hat] * 3), None,
                                   quad.noise_over_p, np.stack([quad.xi] * 3))
        f0 = np.stack([rand_precoder(n, k, rng).stacked for _ in range(3)])
        for tol in (1e-3, 1e-10):
            s = GpiSettings(tol=tol, max_iters=100)
            f, iters, step = run_gpi_precoder(lanes, f0, s)
            f_ref, iters_ref, step_ref = numpy_reference(monkeypatch, lanes,
                                                         f0, s)
            assert iters == iters_ref
            assert np.allclose(f, f_ref, rtol=0, atol=1e-10)
            assert step == pytest.approx(step_ref, rel=1e-6, abs=1e-12)
            # every lane stops on the tolerance
            assert np.all(step <= tol)

    @needs_compiler
    def test_backends_agree_at_paper_size(self, rng, monkeypatch):
        # N=16, K=4, three lanes of their own phases: the compiled loop,
        # which reads h-hat and xi, against the numpy one on the G_k blocks
        est = rand_estimate(16, 4, 2, 4, rng, err=0.05)
        phi = PhaseShifts(np.stack([rand_phases(2, 4, rng).per_ris
                                    for _ in range(3)]), projected=True)
        q = build_precoder_quadratics(est, phi, 0.1)
        assert q.xi.shape == (3, 4)
        f0 = np.stack([rand_precoder(16, 4, rng).stacked for _ in range(3)])
        s = GpiSettings(tol=1e-10, max_iters=100)
        f_ref, iters_ref, step_ref = numpy_reference(monkeypatch, q, f0, s)
        use_backend(monkeypatch, compiled=True)
        f, iters, step = run_gpi_precoder(q, f0, s)
        assert iters == iters_ref
        assert np.allclose(f, f_ref, rtol=0, atol=1e-10)
        assert step == pytest.approx(step_ref, rel=1e-6, abs=1e-12)

    @needs_compiler
    def test_dense_errors_take_the_numpy_loop(self, rng, monkeypatch):
        # a dense error covariance on every link makes each Xi_k a full
        # N x N block, which the compiled loop cannot read: with a compiler
        # present the result is the no-compiler one, bit for bit
        est = rand_estimate(16, 4, 2, 4, rng, err=0.05, dense=True)
        phi = PhaseShifts(np.stack([rand_phases(2, 4, rng).per_ris
                                    for _ in range(3)]), projected=True)
        q = build_precoder_quadratics(est, phi, 0.1)
        assert q.xi is None
        f0 = np.stack([rand_precoder(16, 4, rng).stacked for _ in range(3)])
        s = GpiSettings(tol=1e-10, max_iters=100)
        f, iters, step = run_gpi_precoder(q, f0, s)
        f_ref, iters_ref, step_ref = numpy_reference(monkeypatch, q, f0, s)
        assert iters == iters_ref
        assert np.array_equal(f, f_ref) and np.array_equal(step, step_ref)

    def test_without_compiler_falls_back(self, quad, rng, monkeypatch):
        without_compiler(monkeypatch)
        f0 = rand_precoder(5, 3, rng).stacked
        s = GpiSettings(tol=1e-10, max_iters=100)
        f, iters, step = run_gpi_precoder(quad, f0, s)
        n, k = quad.n, quad.k
        f_ref, iters_ref, step_ref = fixed_point(
            lambda x: gpi_matrices(quad, _as_matrix(x, n, k))[0],
            f0 / np.linalg.norm(f0, axis=-1), s, signed=True)
        assert iters == iters_ref
        assert np.array_equal(f, f_ref) and step == step_ref
        with pytest.raises(RuntimeError, match="no C compiler"):
            _kernel.precoder_loop(quad.h_hat, np.zeros(k), f_ref,
                                  quad.noise_over_p, 1e-3, 10)


class TestImageOracle:
    """The image the precoder loop iterates, on both paths, against one
    dense KN x KN solve of Bbar = blkdiag(Bbar_k)."""

    def test_numpy_image_matches_dense_solve(self, quad, rng):
        f = rand_precoder(5, 3, rng)
        image, lam = gpi_matrices(quad, f.matrix)
        dense, dense_lam = dense_image(quad, f.stacked)
        assert lam == pytest.approx(dense_lam, rel=1e-12)
        assert np.linalg.norm(image - dense) < 1e-10 * np.linalg.norm(dense)

    @pytest.mark.parametrize("dense,compiled", [
        pytest.param(False, True, marks=needs_compiler, id="isotropic-compiled"),
        pytest.param(False, False, id="isotropic-numpy"),
        pytest.param(True, False, id="dense-numpy")])
    def test_one_step_matches_dense_solve(self, rng, monkeypatch, dense,
                                          compiled):
        # one step returns the normalized image, and its step is the
        # distance to the start at the better sign; dense errors have the
        # numpy loop alone
        quad = random_quadratics(rng, dense)
        use_backend(monkeypatch, compiled)
        f0 = rand_precoder(5, 3, rng).stacked
        f1, iters, step = run_gpi_precoder(quad, f0, GpiSettings(max_iters=1))
        dense, _ = dense_image(quad, f0)
        assert iters == 1
        assert np.allclose(f1, dense / np.linalg.norm(dense), rtol=0, atol=1e-12)
        x0 = f0 / np.linalg.norm(f0)
        assert step == pytest.approx(min(np.linalg.norm(f1 - x0),
                                         np.linalg.norm(f1 + x0)), rel=1e-8)

    @pytest.mark.parametrize("bad_block", [0, 1])
    @pytest.mark.parametrize("compiled", [
        pytest.param(True, marks=needs_compiler), False],
        ids=["compiled", "numpy"])
    def test_indefinite_block_is_named(self, monkeypatch, compiled, bad_block):
        q, f0 = indefinite_problem(bad_block)
        # the dense oracle agrees on which blocks fail
        n, k = q.n, q.k
        _, qb = q.quad_forms(f0.reshape(k, n).T)
        bbar = sum(dense_matrix(q, j, with_signal=False) / qb[j]
                   for j in range(k))
        eig = [np.linalg.eigvalsh(bbar[n * j:n * (j + 1), n * j:n * (j + 1)]).min()
               for j in range(k)]
        assert [e <= 0 for e in eig] == [j >= bad_block for j in range(k)]
        use_backend(monkeypatch, compiled)
        with pytest.raises(np.linalg.LinAlgError,
                           match=f"block {bad_block} is not positive definite"):
            run_gpi_precoder(q, f0, GpiSettings())

    @pytest.mark.parametrize("compiled", [
        pytest.param(True, marks=needs_compiler), False],
        ids=["compiled", "numpy"])
    def test_vanishing_quadratic_form_raises(self, monkeypatch, compiled):
        # at f = 1/2 everywhere, qa_k = sum_j |h_k^H f_j|^2 + xi_k ||f||^2
        # is exactly 1/2 - 1/2
        q = isotropic(np.eye(2, dtype=complex), np.full(2, -0.5), 0.0)
        use_backend(monkeypatch, compiled)
        with pytest.raises(FloatingPointError):
            run_gpi_precoder(q, np.ones(4, dtype=complex), GpiSettings())


class TestPrecoderKernel:
    @needs_compiler
    def test_rejects_mismatched_shapes(self, rng):
        q = build_precoder_quadratics(rand_estimate(3, 2, 1, 2, rng),
                                      rand_phases(1, 2, rng), 0.1)
        f = rand_precoder(3, 2, rng).stacked
        h, xi = q.h_hat, q.xi
        # a complex xi (say, the G_k blocks), one with a lane axis or an
        # h-hat with one is refused, not cast or read as one lane
        for bad_h, bad_xi in ((h, xi + 0j), (h, xi[None]), (h, q.g_blocks),
                              (h[None], xi[None])):
            with pytest.raises(ValueError, match="disagree"):
                _kernel.precoder_loop(bad_h, bad_xi, f, 0.1, 1e-3, 5)
        with pytest.raises(ValueError, match="disagree"):
            _kernel.precoder_loop(h, xi, f[None].copy(), 0.1, 1e-3, 5)
        with pytest.raises(ValueError, match="disagree"):
            _kernel.precoder_loop(h, xi, f.astype(np.complex64), 0.1, 1e-3, 5)

    @needs_compiler
    def test_failure_reports_its_block(self):
        # the count turns negative at the failing step, the block is named,
        # and the iterate is the one before that step
        q, f0 = indefinite_problem(1)
        f = f0 / np.linalg.norm(f0)
        start = f.copy()
        iters, block, step = _kernel.precoder_loop(q.h_hat, q.xi, f, 0.1,
                                                   1e-8, 50)
        assert (iters, block, step) == (-1, 1, 0.0)
        assert np.array_equal(f, start)

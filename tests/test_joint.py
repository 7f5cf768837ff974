import time

import numpy as np
import pytest

from conftest import rand_estimate, rand_phases, rand_precoder
import gpris.joint
from gpris.gpi_precoder import build_precoder_quadratics, run_gpi_precoder
from gpris.gpi_ris import (RegularizerSettings, build_ris_quadratics,
                           default_tau, run_gpi_ris)
from gpris.joint import (AlgorithmSettings, LineSearchPlan, compute_r_sigma,
                         initial_pair, run_joint, run_joint_fixed_mu)
from gpris.metrics import (Precoder, lower_bound_sum_se, nmse_unit_modulus)


NOP = 0.1


def small_problem(seed, n=4, k=2, l=2, m=3, err=0.1):
    rng = np.random.default_rng(seed)
    est = rand_estimate(n, k, l, m, rng, err=err)
    return est, np.random.default_rng(seed + 1)


class TestPlanAndSettings:
    def test_grid_endpoints_and_count(self):
        plan = LineSearchPlan(mu_min=0.0, mu_max=100.0, n_points=5)
        assert plan.grid[0] == 0.0
        assert plan.grid[-1] == 100.0
        assert len(plan.grid) == 5

    def test_single_point_grid(self):
        plan = LineSearchPlan(mu_min=7.0, mu_max=7.0, n_points=1)
        assert list(plan.grid) == [7.0]

    @pytest.mark.parametrize("kwargs", [
        {"mu_min": -1.0}, {"mu_min": 5.0, "mu_max": 1.0}, {"n_points": 0}])
    def test_plan_validation(self, kwargs):
        with pytest.raises(ValueError):
            LineSearchPlan(**kwargs)

    def test_settings_require_one_alternation(self):
        with pytest.raises(ValueError, match="t3_max"):
            AlgorithmSettings(t3_max=0)

    def test_settings_expose_inner_loops(self):
        s = AlgorithmSettings(eps1=1e-3, t1_max=10)
        assert s.precoder.tol == pytest.approx(1e-3)
        assert s.precoder.max_iters == 10
        assert s.ris.tol == pytest.approx(s.eps2)


class TestRSigma:
    def test_positive_on_random_instances(self):
        est, rng = small_problem(0)
        f, ph = initial_pair(est, NOP, rng)
        assert compute_r_sigma(est, f, ph, NOP) > 0

    def test_matches_bound(self):
        est, rng = small_problem(1)
        f, ph = initial_pair(est, NOP, rng)
        assert compute_r_sigma(est, f, ph, NOP) == pytest.approx(
            lower_bound_sum_se(est, f, ph, NOP), rel=1e-12)

    def test_rejects_degenerate_operating_point(self):
        est, rng = small_problem(2)
        _, ph = initial_pair(est, NOP, rng)
        zero = Precoder(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            compute_r_sigma(est, zero, ph, NOP)


class TestInitialPair:
    def test_shapes_and_feasibility(self):
        est, rng = small_problem(3)
        f, ph = initial_pair(est, NOP, rng)
        assert f.matrix.shape == (4, 2)
        assert f.total_power <= 1 + 1e-9
        assert np.all(np.abs(np.abs(ph.stacked) - 1.0) < 1e-12)

    def test_deterministic_given_rng_state(self):
        est, _ = small_problem(4)
        f1, p1 = initial_pair(est, NOP, np.random.default_rng(9))
        f2, p2 = initial_pair(est, NOP, np.random.default_rng(9))
        assert np.array_equal(f1.matrix, f2.matrix)
        assert np.array_equal(p1.per_ris, p2.per_ris)


class TestRunJoint:
    def test_reproducible(self):
        est, _ = small_problem(5)
        plan = LineSearchPlan(n_points=3)
        s = AlgorithmSettings(t3_max=3)
        a = run_joint(est, NOP, plan, s, np.random.default_rng(7))
        b = run_joint(est, NOP, plan, s, np.random.default_rng(7))
        assert a.objective == b.objective
        assert a.best_mu == b.best_mu
        assert np.array_equal(a.best_w, b.best_w)

    def test_argmax_contract(self):
        est, _ = small_problem(6)
        plan = LineSearchPlan(n_points=4)
        res = run_joint(est, NOP, plan, AlgorithmSettings(t3_max=3),
                        np.random.default_rng(7))
        finals = [v for v in res.per_mu_final.values() if np.isfinite(v)]
        assert res.objective == pytest.approx(max(finals))
        assert res.per_mu_final[res.best_mu] == pytest.approx(res.objective)

    def test_objective_matches_reported_pair(self):
        est, _ = small_problem(7)
        plan = LineSearchPlan(n_points=3)
        res = run_joint(est, NOP, plan, AlgorithmSettings(t3_max=3),
                        np.random.default_rng(7))
        direct = lower_bound_sum_se(est, res.best_precoder, res.best_phases,
                                    NOP)
        assert res.objective == pytest.approx(direct, rel=1e-9)

    def test_beats_initialization(self):
        wins = 0
        for seed in range(20):
            est, _ = small_problem(seed + 100)
            rng = np.random.default_rng(seed)
            init = initial_pair(est, NOP, np.random.default_rng(seed))
            base = lower_bound_sum_se(est, init[0], init[1], NOP)
            res = run_joint(est, NOP, LineSearchPlan(n_points=3),
                            AlgorithmSettings(t3_max=5),
                            np.random.default_rng(seed), init=init)
            if res.objective >= base - 1e-10:
                wins += 1
        assert wins >= 19

    def test_phases_unit_modulus_and_power_feasible(self):
        est, _ = small_problem(8)
        res = run_joint(est, NOP, LineSearchPlan(n_points=3),
                        AlgorithmSettings(t3_max=3), np.random.default_rng(7))
        assert np.all(np.abs(res.best_phases.stacked) == 1.0)
        assert res.best_precoder.total_power <= 1 + 1e-9

    def test_timing_nonnegative(self):
        est, _ = small_problem(9)
        res = run_joint(est, NOP, LineSearchPlan(n_points=2),
                        AlgorithmSettings(t3_max=2), np.random.default_rng(7))
        for key in ("precoder", "ris", "objective"):
            assert res.timing[key] >= 0.0

    def test_single_outer_pass(self):
        est, _ = small_problem(10)
        res = run_joint(est, NOP, LineSearchPlan(n_points=2),
                        AlgorithmSettings(t3_max=1), np.random.default_rng(7))
        assert all(v >= 1 for v in res.iterations.values())
        assert np.isfinite(res.objective)

    def test_nmse_property(self):
        est, _ = small_problem(11)
        res = run_joint(est, NOP, LineSearchPlan(n_points=2),
                        AlgorithmSettings(t3_max=2), np.random.default_rng(7))
        assert res.nmse == pytest.approx(nmse_unit_modulus(res.best_w),
                                         rel=1e-12)


class TestFixedMu:
    def test_equals_single_point_grid(self):
        est, _ = small_problem(12)
        s = AlgorithmSettings(t3_max=3)
        a = run_joint_fixed_mu(est, NOP, 25.0, s, np.random.default_rng(3))
        plan = LineSearchPlan(mu_min=25.0, mu_max=25.0, n_points=1)
        b = run_joint(est, NOP, plan, s, np.random.default_rng(3))
        assert a.objective == pytest.approx(b.objective, rel=1e-12)
        assert np.allclose(a.best_w, b.best_w)

    def test_regularization_tightens_unit_modulus(self):
        # median relaxed-solution NMSE under mu=100 should not exceed the
        # unregularized one across seeds
        free, tight = [], []
        for seed in range(15):
            est, _ = small_problem(seed + 300, err=0.15)
            s = AlgorithmSettings(t3_max=4)
            a = run_joint_fixed_mu(est, NOP, 0.0, s,
                                   np.random.default_rng(seed))
            b = run_joint_fixed_mu(est, NOP, 100.0, s,
                                   np.random.default_rng(seed))
            free.append(a.nmse)
            tight.append(b.nmse)
        assert np.median(tight) <= np.median(free) + 1e-12


class TestSharedFirstStage:
    """The mu-independent first precoder stage runs once per run_joint."""

    PLAN = LineSearchPlan(mu_min=0.0, mu_max=100.0, n_points=5)
    SETTINGS = AlgorithmSettings(t3_max=4)

    def _instance(self):
        est, rng = small_problem(21)
        return est, initial_pair(est, NOP, rng)

    def test_grid_points_equal_single_mu_runs(self):
        est, init = self._instance()
        res = run_joint(est, NOP, self.PLAN, self.SETTINGS,
                        np.random.default_rng(0), init=init)
        assert not res.errors
        for mu in self.PLAN.grid:
            mu = float(mu)
            one = run_joint_fixed_mu(est, NOP, mu, self.SETTINGS,
                                     np.random.default_rng(0), init=init)
            assert res.per_mu_final[mu] == one.per_mu_final[mu]
            assert res.iterations[mu] == one.iterations[mu]
            assert res.converged[mu] == one.converged[mu]

    def test_precoder_gpi_calls(self, monkeypatch):
        est, init = self._instance()
        calls = []
        original = gpris.joint.run_gpi_precoder

        def counting(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(gpris.joint, "run_gpi_precoder", counting)
        res = run_joint(est, NOP, self.PLAN, self.SETTINGS,
                        np.random.default_rng(0), init=init)
        # the shared first stage, then one call per later round of the lanes
        assert len(calls) == max(res.iterations.values())

    def test_failed_first_stage_fails_every_mu(self, monkeypatch):
        est, init = self._instance()
        calls = []
        original = gpris.joint.run_gpi_precoder

        def first_fails(*args, **kwargs):
            calls.append(1)
            if len(calls) == 1:
                raise np.linalg.LinAlgError("block 0 is not positive definite")
            return original(*args, **kwargs)

        monkeypatch.setattr(gpris.joint, "run_gpi_precoder", first_fails)
        with pytest.raises(RuntimeError, match="every mu point failed") as info:
            run_joint(est, NOP, self.PLAN, self.SETTINGS,
                      np.random.default_rng(0), init=init)
        assert len(calls) == 1
        message = str(info.value)
        for mu in self.PLAN.grid:
            assert f"{float(mu)}: 'LinAlgError: block 0" in message


def _old_precoder_stage(est, noise_over_p, settings, precoder, phases, timing):
    """The sequential code's precoder stage, kept as the oracle."""
    n, k, _, _ = est.dims
    t0 = time.perf_counter()
    quad = build_precoder_quadratics(est, phases, noise_over_p)
    f_star, _, _ = run_gpi_precoder(quad, precoder.stacked, settings.precoder)
    precoder = Precoder.from_stacked(f_star, n, k)
    t1 = time.perf_counter()
    ris_quad = build_ris_quadratics(est, precoder, noise_over_p)
    timing["precoder"] += t1 - t0
    timing["ris"] += time.perf_counter() - t1
    return precoder, ris_quad


def _old_alternate(est, noise_over_p, reg, settings, init, obj_init, first, timing):
    """The sequential code's alternation at one mu, kept as the oracle."""
    precoder, phases = init
    w = phases.normalized
    obj_prev = obj_init
    trace = []
    best = (obj_prev, precoder, phases, w)
    converged = False
    iters = 0
    precoder, ris_quad = first
    for _ in range(settings.t3_max):
        if iters:
            precoder, ris_quad = _old_precoder_stage(est, noise_over_p, settings,
                                                     precoder, phases, timing)
        iters += 1
        t1 = time.perf_counter()
        ris = run_gpi_ris(ris_quad, reg, w, settings.ris)
        phases, w = ris.phases, ris.w
        t2 = time.perf_counter()
        obj = lower_bound_sum_se(est, precoder, phases, noise_over_p)
        t3 = time.perf_counter()
        timing["ris"] += t2 - t1
        timing["objective"] += t3 - t2
        trace.append(obj)
        if obj > best[0]:
            best = (obj, precoder, phases, w)
        if obj_prev > 0 and abs(obj - obj_prev) / obj_prev <= settings.eps3:
            converged = True
            break
        obj_prev = obj
    obj, precoder, phases, w = best
    return obj, precoder, phases, w, trace, iters, converged


def _old_line_search(est, plan, settings, init):
    """One unbatched _old_alternate per grid point: (finals, iters, conv, best_mu)."""
    _, _, l, m = est.dims
    r_sigma = compute_r_sigma(est, *init, NOP)
    timing = {"precoder": 0.0, "ris": 0.0, "objective": 0.0}
    first = _old_precoder_stage(est, NOP, settings, *init, timing)
    finals, iters, conv, best = {}, {}, {}, None
    for mu in map(float, plan.grid):
        reg = RegularizerSettings(mu=mu, tau=default_tau(l, m), r_sigma=r_sigma,
                                  alpha1=settings.alpha1, alpha2=settings.alpha2)
        obj, _, _, _, _, iters[mu], conv[mu] = _old_alternate(
            est, NOP, reg, settings, init, r_sigma, first, timing)
        finals[mu] = obj
        if best is None or obj > finals[best]:
            best = mu
    return finals, iters, conv, best


class TestLanes:
    """The grid points advance as lanes of one batch."""

    @pytest.mark.parametrize("seed,dense", [(0, False), (1, False), (2, False),
                                            (3, True)])
    def test_matches_sequential_alternation(self, seed, dense):
        rng = np.random.default_rng(seed + 500)
        if dense:
            est = rand_estimate(4, 2, 2, 3, rng, err=0.1, dense=True)
        else:
            est = rand_estimate(16, 4, 8, 8, rng, err=0.05)
        init = initial_pair(est, NOP, rng)
        plan, settings = LineSearchPlan(n_points=30), AlgorithmSettings()
        res = run_joint(est, NOP, plan, settings, rng, init=init)
        finals, iters, conv, best_mu = _old_line_search(est, plan, settings, init)
        assert not res.errors
        assert res.per_mu_final.keys() == finals.keys()
        for mu, value in finals.items():
            assert res.per_mu_final[mu] == pytest.approx(value, rel=1e-9, abs=0)
        assert res.iterations == iters
        assert res.converged == conv
        assert res.best_mu == best_mu

    def test_failing_lane_leaves_the_others_alone(self, monkeypatch):
        est, rng = small_problem(31)
        init = initial_pair(est, NOP, rng)
        plan, settings = LineSearchPlan(n_points=5), AlgorithmSettings(t3_max=4)
        clean = run_joint(est, NOP, plan, settings, np.random.default_rng(0),
                          init=init)
        bad_mu = float(plan.grid[2])
        original = gpris.joint.run_gpi_ris

        def fails_for_bad_mu(quad, reg, w, ris_settings):
            if bad_mu in np.atleast_1d(reg.mu):
                raise np.linalg.LinAlgError("forced failure")
            return original(quad, reg, w, ris_settings)

        monkeypatch.setattr(gpris.joint, "run_gpi_ris", fails_for_bad_mu)
        res = run_joint(est, NOP, plan, settings, np.random.default_rng(0),
                        init=init)
        assert res.errors == {bad_mu: "LinAlgError: forced failure"}
        others = [float(mu) for mu in plan.grid if mu != bad_mu]
        assert list(res.per_mu_final) == others
        for mu in others:
            assert res.per_mu_final[mu] == clean.per_mu_final[mu]
            assert res.objective_trace[mu] == clean.objective_trace[mu]
            assert res.iterations[mu] == clean.iterations[mu]
            assert res.converged[mu] == clean.converged[mu]

    def test_stage_calls_through_joint_names(self, monkeypatch):
        est, rng = small_problem(32)
        init = initial_pair(est, NOP, rng)
        plan = LineSearchPlan(n_points=6)
        calls = {}
        results = {}
        for name in ("build_precoder_quadratics", "run_gpi_precoder",
                     "build_ris_quadratics", "run_gpi_ris", "lower_bound_sum_se"):
            original = getattr(gpris.joint, name)

            def counting(*args, _name=name, _fn=original, **kwargs):
                calls[_name] = calls.get(_name, 0) + 1
                out = _fn(*args, **kwargs)
                results.setdefault(_name, []).append(out)
                return out

            monkeypatch.setattr(gpris.joint, name, counting)
        res = run_joint(est, NOP, plan, AlgorithmSettings(t3_max=5),
                        np.random.default_rng(0), init=init)
        rounds = max(res.iterations.values())
        assert calls == {"build_precoder_quadratics": rounds,
                         "run_gpi_precoder": rounds,
                         "build_ris_quadratics": rounds,
                         "run_gpi_ris": rounds,
                         "lower_bound_sum_se": rounds + 1}
        assert all(type(out[1]) is int for out in results["run_gpi_precoder"])
        for out in results["run_gpi_ris"]:
            assert type(out.iterations) is int and out.iterations > 0
            assert type(out.loop_seconds) is float

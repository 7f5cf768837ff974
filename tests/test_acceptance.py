"""End-to-end acceptance checks, one per shipped guarantee.

Each test prints a single PASS/FAIL line with its runtime.  The heavy
optimization-based checks (5-8) also record every reported precoder/phase
pair so the output contract (10) is verified on real runs.
"""

import math
import time

import numpy as np
import pytest

from conftest import cn, rand_estimate, rand_phases, rand_precoder, rand_psd
from gpris.channel import estimate_channels, synthesize_channels
from gpris.gpi_precoder import (GpiSettings, _as_matrix,
                                build_precoder_quadratics, gpi_matrices,
                                run_gpi_precoder)
from gpris.gpi_ris import (_image, block_diag_solve, build_ris_quadratics,
                           run_gpi_ris)
from gpris.harness import _square_factor, bench_ris_stage
from gpris.joint import (AlgorithmSettings, LineSearchPlan, initial_pair,
                         run_joint)
from gpris.metrics import (commutation_matrix, lower_bound_phase_form,
                           lower_bound_sum_se, mc_instantaneous_se,
                           nmse_unit_modulus)
from gpris.scenario import scenario_from_dict

# precoder / phase pairs reported by the optimization runs in criteria 5-8,
# re-checked by criterion 10
_REPORTED_PAIRS = []


def _record(precoder, phases):
    _REPORTED_PAIRS.append((precoder, phases))


def _report(num, name, ok, detail, t0):
    status = "PASS" if ok else "FAIL"
    print(f"\nACCEPTANCE {num} ({name}): {status} — {detail} "
          f"[{time.perf_counter() - t0:.1f}s]")


def make_scenario(n, k, l, m, p_dbm=20.0, rho_ul_dbm=0.0, seed=0,
                  pathloss=True):
    my, mz = _square_factor(m)
    doc = {
        "n_bs_antennas": n, "n_users": k, "n_ris": l,
        "ris_elems_y": my, "ris_elems_z": mz,
        "tx_power_dbm": p_dbm, "ul_train_power_dbm": rho_ul_dbm,
        "rng_seed": seed,
    }
    if not pathloss:
        doc["pathloss"] = {"enabled": False}
    return scenario_from_dict(doc)


def scenario_instance(scenario, seed):
    rng = np.random.default_rng([scenario.config.rng_seed, seed])
    truth = synthesize_channels(scenario, rng)
    est = estimate_channels(truth, scenario, rng)
    return truth, est, rng


def test_criterion_1_jensen_bound_validity():
    t0 = time.perf_counter()
    worst = math.inf
    ok = True
    for i in range(20):
        rho = (-10.0, 0.0, 10.0)[i % 3]
        scenario = make_scenario(8, 3, 2, 4, rho_ul_dbm=rho, seed=i,
                                 pathloss=False)
        _, est, rng = scenario_instance(scenario, i)
        nop = scenario.config.noise_over_power
        f = rand_precoder(8, 3, rng)
        ph = rand_phases(2, 4, rng)
        mean, se = mc_instantaneous_se(est, f, ph, nop, 10_000, rng)
        bound = lower_bound_sum_se(est, f, ph, nop)
        margin = mean + 3.0 * se - bound
        worst = min(worst, margin)
        ok = ok and margin >= 0.0
    _report(1, "Jensen bound validity", ok,
            f"20 instances, worst margin {worst:+.3e} bit", t0)
    assert ok


def test_criterion_2_dual_form_equivalence():
    t0 = time.perf_counter()
    worst = 0.0
    rng = np.random.default_rng(2026)
    for i in range(100):
        est = rand_estimate(4, 3, 2, 3, rng, err=0.2, dense=(i % 2 == 0))
        f = rand_precoder(4, 3, rng)
        ph = rand_phases(2, 3, rng)
        a = lower_bound_sum_se(est, f, ph, 0.05)
        b = lower_bound_phase_form(est, f, ph, 0.05)
        worst = max(worst, abs(a - b) / abs(a))
    ok = worst < 1e-9
    _report(2, "dual-form equivalence", ok,
            f"100 instances, worst relative gap {worst:.2e}", t0)
    assert ok


def test_criterion_3_stationary_residuals():
    t0 = time.perf_counter()
    tight = GpiSettings(tol=1e-6, max_iters=300)
    hits_pre = hits_ris = 0
    for seed in range(50):
        scenario = make_scenario(8, 3, 2, 4, seed=seed, pathloss=False)
        _, est, rng = scenario_instance(scenario, seed)
        nop = scenario.config.noise_over_power
        f0, phi0 = initial_pair(est, nop, rng)
        # each residual at the returned iterate, from the numpy images:
        # ||Bbar^-1 Abar f - lambda f|| / lambda and ||Dbar^-1 Cbar w - w||
        pq = build_precoder_quadratics(est, phi0, nop)
        f, _, _ = run_gpi_precoder(pq, f0.stacked, tight)
        image, lam = gpi_matrices(pq, _as_matrix(f, pq.n, pq.k))
        if np.linalg.norm(image - lam * f) / lam < 1e-3:
            hits_pre += 1
        rq = build_ris_quadratics(est, f0, nop)
        w = run_gpi_ris(rq, 0.0, 1.0, phi0.normalized, tight).w
        if np.linalg.norm(_image(rq, 0.0, 1.0, w) - w) < 1e-3:
            hits_ris += 1
    ok = hits_pre >= 48 and hits_ris >= 48
    _report(3, "stationary residuals", ok,
            f"precoder {hits_pre}/50, phases {hits_ris}/50 below 1e-3", t0)
    assert ok


def test_criterion_4_block_diagonal_solver_oracle():
    t0 = time.perf_counter()
    rng = np.random.default_rng(4)
    worst = 0.0
    for _ in range(50):
        k = int(rng.integers(2, 6))
        n = int(rng.integers(2, 9))
        blocks = np.stack([np.eye(n) + rand_psd(n, rng) for _ in range(k)])
        rhs = cn(k * n, rng)
        dense = np.zeros((k * n, k * n), dtype=complex)
        for i in range(k):
            dense[i * n:(i + 1) * n, i * n:(i + 1) * n] = blocks[i]
        x_block = block_diag_solve(blocks, rhs)
        x_dense = np.linalg.solve(dense, rhs)
        worst = max(worst, np.linalg.norm(x_block - x_dense)
                    / np.linalg.norm(x_dense))
    ok = worst < 1e-10
    _report(4, "block-diagonal solver oracle", ok,
            f"50 systems, worst relative error {worst:.2e}", t0)
    assert ok


def test_criterion_5_inner_loop_convergence():
    t0 = time.perf_counter()
    scenario = make_scenario(16, 4, 2, 32, p_dbm=20.0)
    nop = scenario.config.noise_over_power
    settings = AlgorithmSettings()  # (ε₃, T₃) = (0.01, 20)
    converged = 0
    for seed in range(50):
        _, est, rng = scenario_instance(scenario, seed)
        # convergence-style studies run at a pre-determined penalty weight;
        # mu > 0 damps the phase stage, mirroring the deployed configuration
        res = run_joint(est, nop, LineSearchPlan(10.0, 10.0, 1), settings, rng)
        if all(res.converged.values()):
            converged += 1
        _record(res.best_precoder, res.best_phases)
    ok = converged >= 45
    _report(5, "inner-loop convergence", ok,
            f"{converged}/50 seeds met eps3=0.01 within 20 iterations", t0)
    assert ok


def test_criterion_6_performance_ordering():
    t0 = time.perf_counter()
    plan = LineSearchPlan(n_points=8)
    settings = AlgorithmSettings()
    scenario = make_scenario(16, 4, 2, 32, p_dbm=20.0)
    nop = scenario.config.noise_over_power
    ordered = 0
    for seed in range(100):
        _, est, rng = scenario_instance(scenario, seed)
        f0, phi0 = initial_pair(est, nop, rng)
        rzf_val = lower_bound_sum_se(est, f0, phi0, nop)
        pq = build_precoder_quadratics(est, phi0, nop)
        from gpris.metrics import Precoder
        f_star, _, _ = run_gpi_precoder(pq, f0.stacked, settings.precoder)
        gpi_val = lower_bound_sum_se(
            est, Precoder.from_stacked(f_star, 16, 4), phi0, nop)
        res = run_joint(est, nop, plan, settings, rng, init=(f0, phi0))
        _record(res.best_precoder, res.best_phases)
        if res.objective >= gpi_val - 1e-9 and gpi_val >= rzf_val - 1e-9:
            ordered += 1

    # seed-averaged SE strictly increasing in per-RIS element count
    def joint_mean(scenario, n_seeds=10):
        nop = scenario.config.noise_over_power
        vals = []
        for seed in range(n_seeds):
            _, est, rng = scenario_instance(scenario, seed)
            res = run_joint(est, nop, plan, settings, rng)
            _record(res.best_precoder, res.best_phases)
            vals.append(res.objective)
        return float(np.mean(vals))

    m_means = [joint_mean(make_scenario(16, 4, 2, m, p_dbm=20.0))
               for m in (16, 36, 64)]
    rho_means = [joint_mean(make_scenario(16, 4, 2, 32, p_dbm=20.0,
                                          rho_ul_dbm=rho), n_seeds=25)
                 for rho in (-10.0, 0.0, 10.0)]
    m_ok = m_means[0] < m_means[1] < m_means[2]
    rho_ok = rho_means[0] <= rho_means[1] + 1e-12 and \
        rho_means[1] <= rho_means[2] + 1e-12
    ok = ordered >= 95 and m_ok and rho_ok
    _report(6, "performance ordering", ok,
            f"ordering {ordered}/100; SE vs M {[round(v, 2) for v in m_means]}; "
            f"SE vs rho_UL {[round(v, 2) for v in rho_means]}", t0)
    assert ok


def test_criterion_7_regularization_behavior():
    # the NMSE-vs-mu effect is a property of the relaxed phase stage, so it
    # is measured directly on its output rather than on the joint result
    # (whose best-iterate tracking may return an already-projected pair)
    t0 = time.perf_counter()
    from gpris.joint import compute_r_sigma
    details = []
    ok = True
    for p_dbm in (0.0, 20.0, 40.0):
        scenario = make_scenario(16, 4, 2, 32, p_dbm=p_dbm)
        nop = scenario.config.noise_over_power
        free, tight = [], []
        for seed in range(20):
            _, est, rng = scenario_instance(scenario, seed)
            f0, phi0 = initial_pair(est, nop, rng)
            quad = build_ris_quadratics(est, f0, nop)
            r_sigma = compute_r_sigma(est, f0, phi0, nop)
            for mu, out in ((0.0, free), (100.0, tight)):
                res = run_gpi_ris(quad, mu, r_sigma, phi0.normalized,
                                  GpiSettings())
                _record(f0, res.phases)
                assert res.nmse >= 0.0
                out.append(res.nmse)
        med_free, med_tight = np.median(free), np.median(tight)
        details.append(f"P={p_dbm:g}dBm {med_tight:.2e}<{med_free:.2e}")
        ok = ok and med_tight < med_free
    # exactly unit-modulus relaxed vector -> NMSE 0
    w_exact = rand_phases(2, 32, np.random.default_rng(0)).normalized
    ok = ok and nmse_unit_modulus(w_exact) < 1e-28
    _report(7, "regularization tightens unit modulus", ok,
            "median NMSE mu=100 vs mu=0: " + ", ".join(details), t0)
    assert ok


def test_criterion_8_multi_ris_scalability():
    t0 = time.perf_counter()
    scenarios = [make_scenario(16, 4, l, 64 // l, seed=8, pathloss=False)
                 for l in (2, 4, 8)]
    times = {l: math.inf for l in (2, 4, 8)}
    for _ in range(2):
        result = bench_ris_stage(scenarios, repetitions=15, iters_per_run=30)
        for row in result.rows:
            times[row.n_ris] = min(times[row.n_ris], row.per_iter_seconds)
    decreasing = times[2] > times[4] > times[8]
    ratio = times[8] / times[2]
    ok = decreasing and ratio <= 0.25
    _report(8, "multi-RIS scalability", ok,
            f"per-iter seconds {{L=2: {times[2]:.2e}, L=4: {times[4]:.2e}, "
            f"L=8: {times[8]:.2e}}}, ratio L8/L2 {ratio:.3f} (<= 0.25), "
            f"{result.backend} backend", t0)
    assert ok


def test_criterion_9_commutation_matrix():
    t0 = time.perf_counter()
    checked = 0
    ok = True
    for n in range(1, 37):
        for m in range(1, 37):
            if n * m > 36:
                continue
            p = commutation_matrix(n, m)
            for i in range(n):
                for j in range(m):
                    e = np.zeros((n, m))
                    e[i, j] = 1.0
                    if not np.array_equal(p @ e.flatten(order="F"),
                                          e.T.flatten(order="F")):
                        ok = False
            checked += 1
    _report(9, "commutation matrix", ok,
            f"exhaustive basis check over {checked} shapes with n*m <= 36",
            t0)
    assert ok


def test_criterion_10_unit_modulus_output_contract():
    t0 = time.perf_counter()
    pairs = list(_REPORTED_PAIRS)
    if not pairs:
        # criteria 5-8 were deselected; produce one real run to check
        scenario = make_scenario(8, 3, 2, 4, pathloss=False)
        _, est, rng = scenario_instance(scenario, 0)
        res = run_joint(est, scenario.config.noise_over_power,
                        LineSearchPlan(0.0, 0.0, 1),
                        AlgorithmSettings(alternation=GpiSettings(max_iters=3)),
                        rng)
        pairs = [(res.best_precoder, res.best_phases)]
    ok = True
    for precoder, phases in pairs:
        ok = ok and bool(np.all(np.abs(phases.stacked) == 1.0))
        ok = ok and abs(precoder.total_power - 1.0) <= 1e-9
    _report(10, "unit-modulus output contract", ok,
            f"{len(pairs)} reported pairs: moduli exactly 1, "
            "precoder power within 1e-9 of 1", t0)
    assert ok

"""The stage functions with a leading lane axis compute each lane exactly as
an unbatched call on that lane would, whatever other lanes share the batch."""

import numpy as np
import pytest

from conftest import rand_estimate, rand_phases, rand_precoder
from gpris import _kernel
from gpris.gpi_precoder import (GpiSettings, build_precoder_quadratics,
                                run_gpi_precoder)
from gpris.gpi_ris import (RegularizerSettings, build_ris_quadratics,
                           default_tau, run_gpi_ris)
from gpris.metrics import PhaseShifts, Precoder, lower_bound_sum_se

NOP = 0.1
MUS = np.array([0.0, 5.0, 0.0, 80.0])


@pytest.fixture(params=[False, True], ids=["isotropic", "dense"])
def lanes(request):
    rng = np.random.default_rng(77)
    dims = (4, 2, 2, 3) if request.param else (8, 3, 4, 4)
    est = rand_estimate(*dims, rng, err=0.1, dense=request.param)
    n, k, l, m = dims
    phases = [rand_phases(l, m, rng) for _ in MUS]
    precoders = [rand_precoder(n, k, rng) for _ in MUS]
    return est, phases, precoders


def _batch(est, phases, precoders, sel):
    n, k, _, _ = est.dims
    phi = PhaseShifts(np.stack([phases[p].per_ris for p in sel]), projected=True)
    f = Precoder.from_stacked(np.stack([precoders[p].stacked for p in sel]), n, k)
    return phi, f


@pytest.mark.parametrize("sel", [[0, 1, 2, 3], [2], [3, 1]])
def test_lane_equals_unbatched_call(lanes, sel):
    est, phases, precoders = lanes
    _, _, l, m = est.dims
    phi, f = _batch(est, phases, precoders, sel)
    quad = build_precoder_quadratics(est, phi, NOP)
    lb = lower_bound_sum_se(est, f, phi, NOP)
    gpi = GpiSettings(tol=1e-4, max_iters=40)
    f_star, pre_iters, pre_res = run_gpi_precoder(quad, f.stacked, gpi)
    ris_quad = build_ris_quadratics(est, f, NOP)
    reg = RegularizerSettings(mu=MUS[sel], tau=default_tau(l, m), r_sigma=1.5)
    ris = run_gpi_ris(ris_quad, reg, phi.normalized, GpiSettings())
    assert type(pre_iters) is int and type(ris.iterations) is int
    totals = [0, 0]
    for i, p in enumerate(sel):
        one_quad = build_precoder_quadratics(est, phases[p], NOP)
        assert np.array_equal(quad.g_blocks[i], one_quad.g_blocks)
        assert lb[i] == lower_bound_sum_se(est, precoders[p], phases[p], NOP)
        one_f, one_iters, one_res = run_gpi_precoder(one_quad, precoders[p].stacked, gpi)
        assert np.array_equal(f_star[i], one_f) and pre_res[i] == one_res
        one_ris_quad = build_ris_quadratics(est, precoders[p], NOP)
        assert np.array_equal(ris_quad.c_blocks[i], one_ris_quad.c_blocks)
        one = run_gpi_ris(one_ris_quad, RegularizerSettings(
            mu=float(MUS[p]), tau=reg.tau, r_sigma=reg.r_sigma),
            phases[p].normalized, GpiSettings())
        assert np.array_equal(ris.w[i], one.w)
        assert np.array_equal(ris.phases.per_ris[i], one.phases.per_ris)
        assert ris.residual[i] == one.residual and ris.nmse[i] == one.nmse
        totals[0] += one_iters
        totals[1] += one.iterations
    assert [pre_iters, ris.iterations] == totals


def test_numpy_fallback_runs_lane_by_lane(lanes, monkeypatch):
    est, phases, precoders = lanes
    _, _, l, m = est.dims
    phi, f = _batch(est, phases, precoders, range(len(MUS)))
    quad = build_ris_quadratics(est, f, NOP)
    reg = RegularizerSettings(mu=MUS, tau=default_tau(l, m), r_sigma=1.5)
    monkeypatch.setattr(_kernel, "find_compiler", lambda: None)
    ris = run_gpi_ris(quad, reg, phi.normalized, GpiSettings())
    for i in range(len(MUS)):
        one = run_gpi_ris(quad.lane(i), RegularizerSettings(
            mu=float(MUS[i]), tau=reg.tau, r_sigma=reg.r_sigma),
            phi.normalized[i], GpiSettings())
        assert np.array_equal(ris.w[i], one.w)

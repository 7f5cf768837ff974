"""Tests of the benchmark's own helpers: python3 -m pytest perfbench"""

from __future__ import annotations

import json
import math
import os
import re
import types
from types import SimpleNamespace

import numpy as np
import pytest

import checks
import run
import worker
from tracer import Tracer

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_traced_children():
    clock = FakeClock()
    tracer = Tracer(clock)

    def inner():
        clock.now += 2.0

    traced_inner = tracer.wrap("m.inner", inner)

    def outer():
        clock.now += 1.0
        traced_inner()
        traced_inner()
        clock.now += 0.5

    tracer.wrap("m.outer", outer)()
    out, inn = tracer.layer("m.outer"), tracer.layer("m.inner")
    assert (out.calls, out.total_s, out.self_s) == (1, 5.5, 1.5)
    assert (inn.calls, inn.total_s, inn.self_s) == (2, 4.0, 4.0)


def test_failed_call_is_timed_but_not_counted():
    clock = FakeClock()
    tracer = Tracer(clock)
    seen = []

    def boom():
        clock.now += 1.0
        raise ValueError("x")

    wrapped = tracer.wrap("m.boom", boom, lambda c, r: seen.append(r))
    with pytest.raises(ValueError):
        wrapped()
    stats = tracer.layer("m.boom")
    assert (stats.calls, stats.self_s, seen) == (1, 1.0, [])
    assert tracer._open == []


def test_register_binds_into_callers_only_while_active():
    home = types.ModuleType("home")
    home.work = lambda x: x + 1
    caller = types.ModuleType("caller")
    caller.work = home.work
    other = types.ModuleType("other")
    other.work = lambda x: x        # same name, different function: left alone
    original, other_fn = home.work, other.work
    tracer = Tracer()
    tracer.register("home.work", home, [caller, other],
                    lambda c, r: c.__setitem__("total", c["total"] + r))
    with tracer.active():
        assert caller.work is not original and other.work is other_fn
        assert caller.work(1) == 2
    assert caller.work is original
    stats = tracer.layer("home.work")
    assert stats.calls == 1 and stats.counters["total"] == 2


def test_coverage_flags_vanished_uncalled_and_unexpected_layers():
    home = types.ModuleType("home")
    home.present = lambda: None
    home.bypassed = lambda: None
    tracer = Tracer()
    assert tracer.register("home.gone", home, []) is None
    tracer.register("home.present", home, [])
    bypassed = tracer.register("home.bypassed", home, [])
    assert tracer.flags == ["home.gone: vanished from home"]
    assert tracer.uncalled(["home.present"]) == ["home.present: expected calls, got 0"]
    assert tracer.unexpected(["home.present"]) == []
    bypassed()
    bypassed()
    assert tracer.unexpected(["home.present"]) == [
        "home.bypassed: expected no calls, got 2"]


def test_quartile_spread_matches_statistics_quantiles():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 10.0, 12.0, 8.0, 10.0, 10.0]
    # exclusive quartiles of the sorted values: 9.375 and 10.625; median 10
    assert checks.quartile_spread(values) == pytest.approx((10.625 - 9.375) / 10.0)
    assert checks.quartile_spread([3.0] * 4) == 0.0


def test_select_metrics_keeps_declared_and_rejects_gaps():
    measured = {"a": (1.5, "s"), "b": (2.0, "count"), "extra": (0.0, "s")}
    declared = [{"name": "a", "unit": "s"}, {"name": "b", "unit": "count"}]
    assert checks.select_metrics(measured, declared) == {
        "a": {"value": 1.5, "unit": "s"}, "b": {"value": 2.0, "unit": "count"}}
    with pytest.raises(ValueError, match="not measured"):
        checks.select_metrics(measured, declared + [{"name": "c", "unit": "s"}])
    with pytest.raises(ValueError, match="declared"):
        checks.select_metrics(measured, [{"name": "a", "unit": "ms"}])
    with pytest.raises(ValueError):
        checks.select_metrics({"a": (math.nan, "s")}, [{"name": "a", "unit": "s"}])


def test_result_line_has_exactly_the_contract_keys():
    line = checks.result_line(True, 3, 0, {})
    assert list(line) == ["correct", "attempted", "failed", "metrics"]
    with pytest.raises(ValueError):
        checks.result_line(True, 0, 0, {})


def _joint_result(**changes):
    phases = np.exp(1j * np.linspace(0, 3, 8)).reshape(2, 4)
    phases = phases / np.abs(phases)
    fields = dict(best_phases=SimpleNamespace(per_ris=phases),
                  best_precoder=SimpleNamespace(total_power=1.0,
                                                matrix=np.eye(2, dtype=complex)),
                  objective=5.0, per_mu_final={0.0: 4.0, 1.0: 5.0}, errors={},
                  best_mu=1.0)
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_joint_checks_accept_a_valid_result():
    assert checks.joint_problems(_joint_result(), 4.5) == []


@pytest.mark.parametrize("changes, exact, needle", [
    (dict(best_phases=SimpleNamespace(per_ris=np.full((1, 2), 1.0 + 1e-15))), 4.5,
     "modulus"),
    (dict(best_precoder=SimpleNamespace(total_power=1.0 + 2e-9)), 4.5, "power"),
    (dict(objective=math.inf), 4.5, "finite"),
    (dict(per_mu_final={0.0: -1.0}), 4.5, "finite"),
    ({}, 0.0, "finite"),
    (dict(errors={2.0: "LinAlgError"}), 4.5, "mu points failed"),
])
def test_joint_checks_flag_each_breach(changes, exact, needle):
    problems = checks.joint_problems(_joint_result(**changes), exact)
    assert len(problems) == 1 and needle in problems[0]


def _row(**changes):
    fields = dict(experiment="power_sweep", seed=0, sweep_value=0.0,
                  scheme="gpi_random", lb_sum_se=3.0, exact_sum_se=3.1,
                  mc_se=math.nan, nmse=math.nan, mu=math.nan, iterations=4,
                  error="")
    fields.update(changes)
    return SimpleNamespace(**fields)


def test_sweep_checks():
    rows = [_row(), _row(scheme="rzf_random")]
    assert checks.sweep_problems(rows, 2, 3, 2) == []
    assert "rows, expected" in checks.sweep_problems(rows, 3, 3, 2)[0]
    assert "CSV" in checks.sweep_problems(rows, 2, 2, 2)[0]
    bad = [_row(error="ValueError: x"), _row(lb_sum_se=math.nan)]
    problems = checks.sweep_problems(bad, 2, 3, 2)
    assert "ValueError" in problems[0] and "not finite" in problems[1]


def test_digests_ignore_timings_and_see_values():
    rows = [_row()]
    base = checks.row_bytes(rows)
    timed = _row()
    timed.precoder_s = 9.0
    assert checks.row_bytes([timed]) == base
    assert checks.row_bytes([_row(lb_sum_se=3.0000000000000004)]) != base
    a, b = checks.pair_bytes(_joint_result()), checks.pair_bytes(_joint_result(best_mu=2.0))
    assert checks.digest([a, b]) != checks.digest([b, a])
    assert checks.digest([a]) == checks.digest([a])


def test_git_commit_reads_loose_and_packed_refs(tmp_path):
    git = tmp_path / ".git"
    (git / "refs" / "heads").mkdir(parents=True)
    (git / "HEAD").write_text("ref: refs/heads/main\n")
    (git / "packed-refs").write_text("# pack\nabc123 refs/heads/main\n")
    assert run.git_commit(str(tmp_path)) == "abc123"
    (git / "refs" / "heads" / "main").write_text("def456\n")
    assert run.git_commit(str(tmp_path)) == "def456"
    assert run.git_commit(str(tmp_path / "missing")) == "unknown"


def test_benchmark_json_meets_the_contract():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        bench = json.load(fh)
    assert set(bench) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert 1 <= bench["run_seconds"] <= 60
    name_re = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
    unit_re = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
    names = [w["name"] for w in bench["workloads"]]
    assert 2 <= len(names) <= 8 and set(names) <= set(worker.WORKLOADS)
    metrics = bench["end_to_end"] + bench["per_layer"]
    all_names = names + [m["name"] for m in metrics]
    assert len(all_names) == len(set(all_names))
    for m in metrics:
        assert name_re.match(m["name"]) and unit_re.match(m["unit"])
        assert m["better"] in ("higher", "lower")
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    assert all(0 < b <= 0.25 for b in bounds.values())
    assert bounds["setup_s"] == max(bounds.values())
    per_layer = {m["name"] for m in bench["per_layer"]}
    for layer, _ in worker.LAYERS:
        assert {f"{layer}.calls", f"{layer}.self_s", f"{layer}.share"} <= per_layer

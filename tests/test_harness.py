import csv
import io
import json
import math

import numpy as np
import pytest

from gpris import harness
from gpris.harness import (BenchRow, CSV_HEADER, EXPERIMENT_KINDS,
                           ExperimentSpec, ResultRow, SCHEMES, _apply_sweep,
                           _square_factor, bench_from_spec,
                           bench_ris_stage, load_spec,
                           run_experiment, spec_from_dict, write_results)
from gpris.gpi_precoder import GpiSettings
from gpris.joint import AlgorithmSettings, AllMuPointsFailed
from gpris.scenario import scenario_from_dict

BASE_CONFIG = {
    "n_bs_antennas": 4,
    "n_users": 2,
    "n_ris": 2,
    "ris_elems_y": 2,
    "ris_elems_z": 2,
    "rng_seed": 3,
}

FAST = AlgorithmSettings(alternation=GpiSettings(max_iters=2))


def stable_line(row):
    """CSV line minus the wall-clock timing columns."""
    parts = row.csv_line().split(",")
    return ",".join(parts[:10] + parts[12:])


def small_spec(**over):
    kwargs = dict(kind="power_sweep", sweep_values=(0.0, 20.0), n_seeds=2,
                  base_config=BASE_CONFIG, mu_points=2)
    kwargs.update(over)
    return ExperimentSpec(**kwargs)


class TestSpecParsing:
    def test_round_trip_from_dict(self):
        spec = spec_from_dict({"kind": "power_sweep",
                               "sweep_values": [0, 10],
                               "n_seeds": 3})
        assert spec.kind == "power_sweep"
        assert spec.sweep_values == (0, 10)

    def test_unknown_key_rejected(self):
        # fixed_mu is no setting: a single mu is mu_min with mu_points 1
        for key in ("grid", "fixed_mu"):
            with pytest.raises(ValueError, match="unknown spec keys"):
                spec_from_dict({"kind": "power_sweep", "sweep_values": [0],
                                "n_seeds": 1, key: 4})

    @pytest.mark.parametrize("kwargs", [
        {"kind": "nope"}, {"sweep_values": ()}, {"n_seeds": 0},
        {"schemes": ("gpi_pris", "magic")}, {"bench_repetitions": 0},
        {"mu_min": 5.0, "mu_max": 5.0}, {"mu_min": 5.0, "mu_max": 1.0},
        {"mu_min": math.nan}, {"mu_max": math.nan}, {"mu_max": math.inf},
        {"mu_points": 2.5}])
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(kind="power_sweep", sweep_values=(0.0,), n_seeds=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ExperimentSpec(**base)

    @pytest.mark.parametrize("kwargs,field,value", [
        ({"kind": "antennas_sweep", "sweep_values": (4, 4.7)}, "sweep_values", "4.7"),
        ({"kind": "ris_elems_sweep", "sweep_values": (6.9,)}, "sweep_values", "6.9"),
        ({"kind": "scalability", "sweep_values": (2.5,)}, "sweep_values", "2.5"),
        ({"kind": "ris_elems_sweep", "sweep_values": (0,)}, "sweep_values", "0"),
        ({"kind": "bench", "sweep_values": (1, -2)}, "sweep_values", "-2"),
        ({"n_seeds": 1.5}, "n_seeds", "1.5"),
        ({"bench_iters": 0}, "bench_iters", "0"),
        ({"n_seeds": True}, "n_seeds", "True"),
        ({"mu_points": True}, "n_points", "True")])
    def test_counts_must_be_positive_integers(self, kwargs, field, value):
        base = dict(kind="power_sweep", sweep_values=(0.0,), n_seeds=1)
        base.update(kwargs)
        with pytest.raises(ValueError, match=rf"{field}.*got {value}\b"):
            ExperimentSpec(**base)

    @pytest.mark.parametrize("kind,value", [
        ("power_sweep", math.nan), ("csit_sweep", math.inf),
        ("scalability", -math.inf), ("mu_study", math.nan),
        ("antennas_sweep", math.inf)])
    def test_sweep_values_must_be_finite(self, kind, value):
        # the stream key int(abs(value * 1024)) would fail mid-run
        with pytest.raises(ValueError, match=rf"sweep_values.*got {value}"):
            ExperimentSpec(kind=kind, sweep_values=(1.0, value), n_seeds=1)

    def test_base_config_checked_at_load(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentSpec(kind="power_sweep", sweep_values=(0.0,), n_seeds=1,
                           base_config={"ul_train_len": 64})
        for kind in ("scalability", "bench"):
            with pytest.raises(ValueError, match="M_tot=8 not divisible by L=3"):
                ExperimentSpec(kind=kind, sweep_values=(1, 3), n_seeds=1,
                               base_config=BASE_CONFIG)

    def test_integral_float_counts_accepted(self):
        spec = ExperimentSpec(kind="antennas_sweep", sweep_values=(4.0, 8),
                              n_seeds=1)
        assert spec.sweep_values == (4.0, 8)

    def test_load_spec_file(self, tmp_path):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps({"kind": "csit_sweep",
                                    "sweep_values": [-10, 0, 10],
                                    "n_seeds": 2}))
        spec = load_spec(str(path))
        assert spec.kind == "csit_sweep"


class TestSquareFactor:
    @pytest.mark.parametrize("m,expect", [(4, (2, 2)), (8, (4, 2)),
                                          (16, (4, 4)), (32, (8, 4)),
                                          (36, (6, 6)), (7, (7, 1))])
    def test_values(self, m, expect):
        my, mz = _square_factor(m)
        assert (my, mz) == expect
        assert my * mz == m


class TestApplySweep:
    def test_power_sweep_sets_power(self):
        base = scenario_from_dict(dict(BASE_CONFIG))
        out = _apply_sweep(base, "power_sweep", 37.0)
        assert out.config.tx_power_dbm == 37.0

    def test_scalability_preserves_total_elements(self):
        cfg = dict(BASE_CONFIG)
        cfg.update({"ris_elems_y": 6, "ris_elems_z": 6, "n_ris": 4})
        base = scenario_from_dict(cfg)
        m_tot = base.config.m_ris * base.config.n_ris
        for l in (2, 4, 8, 16):
            out = _apply_sweep(base, "scalability", l)
            assert out.config.n_ris == l
            assert out.config.m_ris * l == m_tot
            assert len(out.geometry.ris_positions) == l
            assert not out.pathloss.enabled

    def test_scalability_rejects_indivisible(self):
        base = scenario_from_dict(dict(BASE_CONFIG))
        with pytest.raises(ValueError, match="not divisible"):
            _apply_sweep(base, "scalability", 3)

    def test_csit_sweep_sets_training_power(self):
        base = scenario_from_dict(dict(BASE_CONFIG))
        out = _apply_sweep(base, "csit_sweep", -10.0)
        assert out.config.ul_train_power_dbm == -10.0


class TestRunExperiment:
    def test_row_cardinality_and_order(self):
        spec = small_spec()
        rows = run_experiment(spec, FAST)
        assert len(rows) == 2 * 2 * len(SCHEMES)
        keys = [(r.sweep_value, r.seed, SCHEMES.index(r.scheme)) for r in rows]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)

    def test_deterministic_rerun(self):
        spec = small_spec()
        a = run_experiment(spec, FAST)
        b = run_experiment(spec, FAST)
        assert [stable_line(r) for r in a] == [stable_line(r) for r in b]

    def test_base_seed_changes_draws(self):
        spec = small_spec()
        a = run_experiment(spec, FAST, base_seed=1)
        b = run_experiment(spec, FAST, base_seed=2)
        assert [stable_line(r) for r in a] != [stable_line(r) for r in b]

    def test_rows_have_finite_objectives(self):
        rows = run_experiment(small_spec(), FAST)
        for r in rows:
            assert r.error == ""
            assert math.isfinite(r.lb_sum_se) and r.lb_sum_se >= 0
            assert math.isfinite(r.exact_sum_se) and r.exact_sum_se >= 0

    def test_single_mu_kinds_run_their_one_point(self):
        # mu_study sweeps mu itself; a one-point plan pins it for any other
        # kind
        with pytest.raises(ValueError, match=r"mu_study sweep_values.*got -1\.0"):
            small_spec(kind="mu_study", sweep_values=(-1.0, 5.0))
        rows = run_experiment(small_spec(kind="mu_study", sweep_values=(5.0,),
                                         n_seeds=1, schemes=("gpi_pris",)), FAST)
        assert rows[0].error == "" and rows[0].mu == 5.0
        rows = run_experiment(small_spec(mu_min=7.0, mu_points=1, n_seeds=1,
                                         schemes=("gpi_pris",)), FAST)
        assert [(r.error, r.mu) for r in rows] == [("", 7.0)] * 2

    def test_stream_ids_stay_pinned(self, monkeypatch):
        # each kind keys its RNG streams by its index in the kind list that
        # still held "convergence" (4), so removing that kind moved no rows
        old = ("power_sweep", "ris_elems_sweep", "antennas_sweep",
               "csit_sweep", "convergence", "mu_study", "scalability", "bench")
        assert EXPERIMENT_KINDS == {kind: old.index(kind) for kind in old
                                    if kind != "convergence"}
        keys = []
        default_rng = np.random.default_rng
        monkeypatch.setattr(harness.np.random, "default_rng",
                            lambda seed: keys.append(seed) or default_rng(seed))
        run_experiment(small_spec(kind="mu_study", sweep_values=(5.0,),
                                  n_seeds=1, schemes=("rzf_random",)), FAST)
        assert keys == [[BASE_CONFIG["rng_seed"], 5, 5 * 1024, 0]]

    @pytest.mark.parametrize("exc,recorded", [
        (np.linalg.LinAlgError("block 0 is not positive definite"), True),
        (AllMuPointsFailed("every mu point failed: {0.0: 'ValueError: x'}"),
         True),
        (TypeError("a bug"), False), (AttributeError("a bug"), False)])
    def test_only_stage_errors_become_row_errors(self, monkeypatch, exc,
                                                 recorded):
        # what the stages report is the row's error; a bug propagates
        def fails(*args, **kwargs):
            raise exc

        monkeypatch.setattr(harness, "run_joint", fails)
        spec = small_spec(sweep_values=(0.0,), n_seeds=1,
                          schemes=("gpi_pris", "rzf_random"))
        if recorded:
            rows = run_experiment(spec, FAST)
            assert [r.error for r in rows] == [f"{type(exc).__name__}: {exc}",
                                               ""]
        else:
            with pytest.raises(type(exc), match="a bug"):
                run_experiment(spec, FAST)

    def test_bench_kind_rejected(self):
        spec = small_spec(kind="bench", sweep_values=(2,))
        with pytest.raises(ValueError, match="bench"):
            run_experiment(spec, FAST)

    def test_csit_trend_in_lower_bound(self):
        # more uplink training power -> better CSIT -> the bound cannot
        # degrade on average
        spec = small_spec(kind="csit_sweep", sweep_values=(-30.0, 20.0),
                          n_seeds=24, schemes=("rzf_random",))
        rows = run_experiment(spec, FAST)
        means = {}
        for v in (-30.0, 20.0):
            means[v] = np.mean([r.lb_sum_se for r in rows
                                if r.sweep_value == v])
        assert means[20.0] >= means[-30.0]


class TestWriteResults:
    def test_csv_and_jsonl_round_trip(self, tmp_path):
        rows = run_experiment(small_spec(), FAST)
        out = str(tmp_path / "res")
        csv_path, jsonl_path = write_results(rows, out)
        with open(csv_path, newline="") as fh:
            reader = list(csv.DictReader(fh))
        assert len(reader) == len(rows)
        assert list(reader[0].keys()) == CSV_HEADER.split(",")
        for rec, row in zip(reader, rows):
            assert float(rec["lb_sum_se"]) == row.lb_sum_se
            assert int(rec["seed"]) == row.seed
        with open(jsonl_path) as fh:
            docs = [json.loads(line) for line in fh]
        assert len(docs) == len(rows)
        assert docs[0]["scheme"] == rows[0].scheme

    def test_error_with_commas_stays_one_field(self, tmp_path):
        error = ("RuntimeError: every mu point failed: {0.0: 'LinAlgError: "
                 "a, b', 50.0: \"x\"}")
        rows = [ResultRow(experiment="power_sweep", seed=1, sweep_value=0.0,
                          scheme="gpi_pris", error=error),
                ResultRow(experiment="power_sweep", seed=2, sweep_value=10.0,
                          scheme="rzf_random", lb_sum_se=1.5, iterations=3)]
        csv_path, _ = write_results(rows, str(tmp_path / "res"))
        with open(csv_path, newline="") as fh:
            records = list(csv.reader(fh))
        assert [len(r) for r in records] == [13, 13, 13]
        assert records[1][-1] == error
        assert records[2][4] == "1.5" and records[2][9] == "3"
        # a row without a comma or quote is written unquoted, as before
        assert rows[1].csv_line() == ("power_sweep,2,10.0,rzf_random,1.5,nan,"
                                      "nan,nan,nan,3,0.0,0.0,")

    def test_rows_write_the_bytes_of_their_fields(self, tmp_path):
        # CSV and JSONL lines as csv.writer and json.dumps(asdict(row)) write
        # them, for an error holding a comma, a quote and a line break
        import dataclasses
        error = 'ValueError: a, "b"\nc'
        rows = [ResultRow(experiment="power_sweep", seed=1, sweep_value=0.5,
                          scheme="gpi_pris", error=error),
                ResultRow(experiment="power_sweep", seed=2, sweep_value=10.0,
                          scheme="rzf_random", lb_sum_se=1.25, mu=0.1,
                          iterations=3, precoder_s=2e-3)]
        csv_path, jsonl_path = write_results(rows, str(tmp_path / "res"))
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(CSV_HEADER.split(","))
        for row in rows:
            writer.writerow([repr(v) if isinstance(v, float) else v
                             for v in dataclasses.astuple(row)])
        with open(csv_path, encoding="utf-8", newline="") as fh:
            assert fh.read() == buf.getvalue()
        with open(jsonl_path, encoding="utf-8") as fh:
            assert fh.read() == "".join(json.dumps(dataclasses.asdict(row)) + "\n"
                                        for row in rows)

    def test_append_only_single_header(self, tmp_path):
        rows = run_experiment(small_spec(), FAST)
        out = str(tmp_path / "res")
        write_results(rows, out)
        write_results(rows, out)
        with open(out + ".csv") as fh:
            lines = fh.read().splitlines()
        assert lines.count(CSV_HEADER) == 1
        assert len(lines) == 1 + 2 * len(rows)


class TestBench:
    def _bench_spec(self, repetitions=3, sweep=(2, 4), m_tot=16):
        my, mz = _square_factor(m_tot // 2)
        cfg = dict(BASE_CONFIG)
        cfg.update({"n_ris": 2, "ris_elems_y": my, "ris_elems_z": mz})
        return ExperimentSpec(kind="bench", sweep_values=sweep, n_seeds=1,
                              base_config=cfg, bench_repetitions=repetitions,
                              bench_iters=5)

    def test_rows_and_positive_times(self):
        res = bench_from_spec(self._bench_spec())
        assert [r.n_ris for r in res.rows] == [2, 4]
        for r in res.rows:
            assert r.per_iter_seconds > 0
            assert r.n_ris * r.elems_per_ris == 16
            assert not r.low_confidence

    def test_single_repetition_flagged(self):
        res = bench_from_spec(self._bench_spec(repetitions=1))
        assert all(r.low_confidence for r in res.rows)

    def test_zero_repetitions_rejected(self):
        with pytest.raises(ValueError, match="repetitions"):
            bench_ris_stage([scenario_from_dict(BASE_CONFIG)], repetitions=0)

    def test_slope_nan_for_single_point(self):
        res = bench_from_spec(self._bench_spec(sweep=(4,)))
        assert math.isnan(res.loglog_slope)

    @pytest.mark.slow
    def test_scaling_targets_at_full_size(self):
        # M_tot = 64, L in {2, 4, 8, 16}: per-iteration time should drop by
        # at least half per doubling of L, with a log-log slope in the
        # expected block-solve window.  The sizes alternate within each of
        # the 30 repetitions, so a slower spell of the host hits all of them
        # alike, and each size keeps its fastest run
        my, mz = _square_factor(32)
        cfg = dict(BASE_CONFIG)
        cfg.update({"n_ris": 2, "ris_elems_y": my, "ris_elems_z": mz,
                    "n_bs_antennas": 8, "n_users": 3})
        specs = {l: ExperimentSpec(kind="bench", sweep_values=(l,), n_seeds=1,
                                   base_config=cfg, bench_repetitions=1,
                                   bench_iters=30) for l in (2, 4, 8, 16)}
        times = dict.fromkeys(specs, math.inf)
        for _ in range(30):
            for l, spec in specs.items():
                row, = bench_from_spec(spec).rows
                times[l] = min(times[l], row.per_iter_seconds)
        for small, big in ((2, 4), (4, 8), (8, 16)):
            assert times[big] <= 0.5 * times[small], (small, big, times)
        ls = np.log(list(times))
        ts = np.log([times[l] for l in times])
        slope = float(np.polyfit(ls, ts, 1)[0])
        assert -2.5 <= slope <= -1.0, (slope, times)

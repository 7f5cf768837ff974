import csv
import json
import math

import numpy as np
import pytest

from gpris.harness import (BenchRow, CSV_HEADER, EXPERIMENT_KINDS,
                           ExperimentSpec, ResultRow, SCHEMES, _apply_sweep,
                           _square_factor, bench_from_spec, load_spec,
                           run_experiment, spec_from_dict, write_results)
from gpris.joint import AlgorithmSettings
from gpris.scenario import scenario_from_dict

BASE_CONFIG = {
    "n_bs_antennas": 4,
    "n_users": 2,
    "n_ris": 2,
    "ris_elems_y": 2,
    "ris_elems_z": 2,
    "rng_seed": 3,
}

FAST = AlgorithmSettings(t3_max=2)


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
        with pytest.raises(ValueError, match="unknown spec keys"):
            spec_from_dict({"kind": "power_sweep", "sweep_values": [0],
                            "n_seeds": 1, "grid": 4})

    @pytest.mark.parametrize("kwargs", [
        {"kind": "nope"}, {"sweep_values": ()}, {"n_seeds": 0},
        {"schemes": ("gpi_pris", "magic")}])
    def test_invalid_fields_rejected(self, kwargs):
        base = dict(kind="power_sweep", sweep_values=(0.0,), n_seeds=1)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ExperimentSpec(**base)

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

    def test_slope_nan_for_single_point(self):
        res = bench_from_spec(self._bench_spec(sweep=(4,)))
        assert math.isnan(res.loglog_slope)

    @pytest.mark.slow
    def test_scaling_targets_at_full_size(self):
        # M_tot = 64, L in {2, 4, 8, 16}: per-iteration time should drop by
        # at least half per doubling of L, with a log-log slope in the
        # expected block-solve window
        my, mz = _square_factor(32)
        cfg = dict(BASE_CONFIG)
        cfg.update({"n_ris": 2, "ris_elems_y": my, "ris_elems_z": mz,
                    "n_bs_antennas": 8, "n_users": 3})
        spec = ExperimentSpec(kind="bench", sweep_values=(2, 4, 8, 16),
                              n_seeds=1, base_config=cfg,
                              bench_repetitions=15, bench_iters=30)
        a = bench_from_spec(spec)
        b = bench_from_spec(spec)
        times = {r.n_ris: min(x.per_iter_seconds, y.per_iter_seconds)
                 for r, x, y in zip(a.rows, a.rows, b.rows)}
        for small, big in ((2, 4), (4, 8), (8, 16)):
            assert times[big] <= 0.5 * times[small], (small, big, times)
        ls = np.log(list(times))
        ts = np.log([times[l] for l in times])
        slope = float(np.polyfit(ls, ts, 1)[0])
        assert -2.5 <= slope <= -1.0, (slope, times)

import json

import pytest

from gpris import cli

BASE_CONFIG = {"n_bs_antennas": 4, "n_users": 2, "n_ris": 2,
               "ris_elems_y": 2, "ris_elems_z": 2, "rng_seed": 3}


def write_json(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return str(path)


@pytest.fixture
def run_spec(tmp_path):
    return write_json(tmp_path / "run.json", {
        "kind": "power_sweep", "sweep_values": [0.0, 10.0], "n_seeds": 1,
        "mu_points": 2, "base_config": BASE_CONFIG})


@pytest.fixture
def bench_spec(tmp_path):
    return write_json(tmp_path / "bench.json", {
        "kind": "bench", "sweep_values": [1, 2], "n_seeds": 1,
        "bench_repetitions": 1, "bench_iters": 2,
        "base_config": {**BASE_CONFIG, "rng_seed": 0}})


def test_run_writes_one_row_per_point_and_scheme(run_spec, tmp_path):
    stem = str(tmp_path / "out")
    assert cli.main(["run", run_spec, "--out", stem]) == 0
    with open(stem + ".csv", encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    # header plus 2 sweep values x 1 seed x 3 schemes
    assert len(lines) == 1 + 2 * 1 * 3
    with open(stem + ".jsonl", encoding="utf-8") as fh:
        assert len(fh.read().splitlines()) == 6


def test_run_refuses_a_bench_spec(bench_spec, capsys):
    assert cli.main(["run", bench_spec]) == 2
    assert len(capsys.readouterr().err.splitlines()) == 1


def test_bench_seed_override(bench_spec, tmp_path, monkeypatch):
    seen = []
    real = cli.bench_from_spec

    def spy(spec):
        seen.append(spec)
        return real(spec)
    monkeypatch.setattr(cli, "bench_from_spec", spy)
    stem = str(tmp_path / "bench")
    assert cli.main(["bench", bench_spec, "--seed", "3", "--out", stem]) == 0
    assert seen[0].base_config == {**BASE_CONFIG, "rng_seed": 3}
    assert seen[0].sweep_values == (1, 2) and seen[0].bench_iters == 2
    with open(stem + ".json", encoding="utf-8") as fh:
        report = json.load(fh)
    assert report["backend"] in ("c", "numpy")
    assert [r["n_ris"] for r in report["rows"]] == [1, 2]


def test_bench_writes_to_spec_output_path(tmp_path, capsys):
    stem = tmp_path / "report"
    spec = write_json(tmp_path / "bench.json", {
        "kind": "bench", "sweep_values": [1, 2], "n_seeds": 1,
        "bench_repetitions": 1, "bench_iters": 2, "output_path": str(stem),
        "base_config": BASE_CONFIG})
    assert cli.main(["bench", spec]) == 0
    with open(f"{stem}.json", encoding="utf-8") as fh:
        assert [r["n_ris"] for r in json.load(fh)["rows"]] == [1, 2]
    assert capsys.readouterr().out == f"wrote bench report to {stem}.json\n"


def test_validate_exit_codes(tmp_path):
    good = write_json(tmp_path / "good.json", BASE_CONFIG)
    bad = write_json(tmp_path / "bad.json", {**BASE_CONFIG, "n_users": 0})
    assert cli.main(["validate", good]) == 0
    assert cli.main(["validate", bad]) == 1
    assert cli.main(["validate", str(tmp_path / "missing.json")]) == 2


@pytest.mark.parametrize("command", ["run", "bench"])
@pytest.mark.parametrize("text,code", [
    (None, 2), ('{"kind": "power_sweep", ', 1),
    ('{"kind": "power_sweep", "sweep_values": [NaN], "n_seeds": 1}', 1),
    ('{"kind": "power_sweep", "sweep_values": [0.0, 4000.0], "n_seeds": 1}', 1)],
    ids=["missing", "malformed", "invalid", "power"])
def test_bad_spec_is_one_line_and_exit_code(command, text, code, tmp_path,
                                            capsys):
    # the same exit codes as validate, and no traceback
    path = tmp_path / "spec.json"
    if text is not None:
        path.write_text(text, encoding="utf-8")
    assert cli.main([command, str(path)]) == code
    err = capsys.readouterr().err
    assert len(err.splitlines()) == 1 and "Traceback" not in err


@pytest.mark.parametrize("command", ["run", "bench"])
def test_threads_flag_rejected(command, run_spec):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, run_spec, "--threads", "2"])
    assert exc.value.code == 2


@pytest.mark.parametrize("command", ["run", "bench"])
def test_negative_seed_is_a_usage_error(command, run_spec, capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main([command, run_spec, "--seed", "-1"])
    assert exc.value.code == 2
    err = capsys.readouterr().err
    assert err.startswith("usage:") and "--seed: must be unsigned, got -1" in err
    assert "Traceback" not in err

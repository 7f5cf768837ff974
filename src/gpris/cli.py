"""Command-line front end: run experiments, benchmark, validate configs."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys

from .harness import bench_from_spec, load_spec, run_experiment, write_results
from .joint import AlgorithmSettings
from .scenario import load_scenario


def _seed(text: str) -> int:
    """An rng seed, which numpy takes only unsigned."""
    seed = int(text)
    if seed < 0:
        raise argparse.ArgumentTypeError(f"must be unsigned, got {seed}")
    return seed


def _add_common(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--seed", type=_seed, default=None,
                        help="override the scenario rng seed")
    parser.add_argument("--out", type=str, default=None,
                        help="output path stem (.csv / .jsonl are appended)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gpris",
        description="Joint precoder / RIS phase optimization experiments")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run an experiment spec")
    p_run.add_argument("path", metavar="spec", help="experiment spec JSON file")
    _add_common(p_run)

    p_bench = sub.add_parser("bench", help="time the RIS stage across configs")
    p_bench.add_argument("path", metavar="spec",
                         help="experiment spec JSON file (kind=bench)")
    _add_common(p_bench)

    p_val = sub.add_parser("validate", help="check a scenario config file")
    p_val.add_argument("path", metavar="config", help="scenario config JSON file")
    return parser


def cmd_run(spec, args) -> int:
    if spec.kind == "bench":
        print("a bench spec runs with `gpris bench`", file=sys.stderr)
        return 2
    rows = run_experiment(spec, AlgorithmSettings(), base_seed=args.seed)
    out = args.out or spec.output_path
    csv_path, jsonl_path = write_results(rows, out)
    print(f"wrote {len(rows)} rows to {csv_path} and {jsonl_path}")
    failures = [r for r in rows if r.error]
    for row in failures:
        print(f"  failed: value={row.sweep_value} seed={row.seed} "
              f"scheme={row.scheme}: {row.error}", file=sys.stderr)
    # each sweep point must have at least one successful row
    ok_values = {r.sweep_value for r in rows if not r.error}
    missing = [v for v in spec.sweep_values if float(v) not in ok_values]
    if missing:
        print(f"no successful rows for sweep values {missing}", file=sys.stderr)
        return 1
    return 0


def cmd_bench(spec, args) -> int:
    if spec.kind != "bench":
        print(f"expected a bench spec, got kind={spec.kind!r}", file=sys.stderr)
        return 2
    if args.seed is not None:
        spec = dataclasses.replace(
            spec, base_config={**spec.base_config, "rng_seed": args.seed})
    result = bench_from_spec(spec)
    report = {
        "rows": [vars(r) for r in result.rows],
        "loglog_slope": result.loglog_slope,
        "backend": result.backend,
    }
    path = (args.out or spec.output_path) + ".json"
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(report, indent=2) + "\n")
    print(f"wrote bench report to {path}")
    return 0


def cmd_validate(scenario, args) -> int:
    cfg = scenario.config
    print(f"valid: N={cfg.n_bs_antennas} K={cfg.n_users} L={cfg.n_ris} "
          f"M={cfg.m_ris} P={cfg.tx_power_dbm}dBm T_UL={cfg.ul_train_len}")
    return 0


_COMMANDS = {"run": (load_spec, cmd_run), "bench": (load_spec, cmd_bench),
             "validate": (load_scenario, cmd_validate)}


def main(argv=None) -> int:
    """Load the command's file (unreadable: exit 2, invalid: 1), then run it."""
    args = build_parser().parse_args(argv)
    load, command = _COMMANDS[args.command]
    try:
        doc = load(args.path)
    except OSError as exc:
        print(f"cannot read {args.path}: {exc.strerror}", file=sys.stderr)
        return 2
    except (ValueError, TypeError) as exc:
        print(f"invalid: {exc}", file=sys.stderr)
        return 1
    return command(doc, args)


if __name__ == "__main__":
    sys.exit(main())

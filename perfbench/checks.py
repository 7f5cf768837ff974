"""Output checks, result digests, statistics and the result-line contract."""

from __future__ import annotations

import hashlib
import math
import statistics

POWER_TOL = 1e-9


def _finite_positive(values) -> bool:
    return all(math.isfinite(v) and v > 0 for v in values)


def joint_problems(result, exact_se: float) -> list[str]:
    """Breaches of the output contract by one run_joint result."""
    problems = []
    if not (abs(result.best_phases.per_ris) == 1.0).all():
        problems.append("a returned phase does not have modulus exactly 1.0")
    power = result.best_precoder.total_power
    if not abs(power - 1.0) <= POWER_TOL:
        problems.append(f"precoder power {power!r} is not within {POWER_TOL} of 1")
    if not _finite_positive([result.objective, exact_se,
                             *result.per_mu_final.values()]):
        problems.append("an objective is not finite and positive")
    if result.errors:
        problems.append(f"mu points failed: {result.errors}")
    return problems


def sweep_problems(rows, expected_rows: int, csv_lines: int,
                   jsonl_lines: int) -> list[str]:
    """Breaches by one run_experiment + write_results sweep."""
    problems = []
    if len(rows) != expected_rows:
        problems.append(f"{len(rows)} rows, expected {expected_rows}")
    for row in rows:
        where = f"{row.scheme} at {row.sweep_value!r} seed {row.seed}"
        if row.error:
            problems.append(f"{where}: {row.error}")
        elif not _finite_positive([row.lb_sum_se, row.exact_sum_se]):
            problems.append(f"{where}: sum SE is not finite and positive")
    if csv_lines != len(rows) + 1 or jsonl_lines != len(rows):
        problems.append(f"wrote {csv_lines} CSV and {jsonl_lines} JSONL lines "
                        f"for {len(rows)} rows")
    return problems


def pair_bytes(result) -> bytes:
    """The returned precoder, phases and mu of a run_joint result, as bytes."""
    return (result.best_precoder.matrix.tobytes()
            + result.best_phases.per_ris.tobytes()
            + repr(result.best_mu).encode())


def row_bytes(rows) -> bytes:
    """Every column of the rows except the wall-clock timings, as bytes."""
    return "\n".join(
        repr((r.experiment, r.seed, r.sweep_value, r.scheme, r.lb_sum_se,
              r.exact_sum_se, r.mc_se, r.nmse, r.mu, r.iterations, r.error))
        for r in rows).encode()


def digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        h.update(hashlib.sha256(part).digest())
    return h.hexdigest()


def quartile_spread(values) -> float:
    """(third quartile - first quartile) / median, as statistics.quantiles gives them."""
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def select_metrics(measured: dict, declared: list[dict]) -> dict:
    """Pick the declared metrics out of {name: (value, unit)}.

    Raises ValueError when a declared metric is missing, has another unit,
    or is not a finite number.
    """
    out = {}
    for spec in declared:
        name = spec["name"]
        if name not in measured:
            raise ValueError(f"metric {name} was not measured")
        value, unit = measured[name]
        if unit != spec["unit"]:
            raise ValueError(f"metric {name} measured in {unit}, declared {spec['unit']}")
        if not math.isfinite(value):
            raise ValueError(f"metric {name} is {value!r}")
        out[name] = {"value": value, "unit": unit}
    return out


def result_line(correct: bool, attempted: int, failed: int, metrics: dict) -> dict:
    if attempted < 1:
        raise ValueError("a run must attempt at least one instance")
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}

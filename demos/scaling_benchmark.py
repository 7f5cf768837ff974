"""Per-iteration cost of the phase stage as elements spread across surfaces.

The phase-stage fixed point solves one block-diagonal system per iteration:
L blocks of size M when L surfaces carry M elements each.  At a fixed total
element count L*M, more surfaces means smaller blocks, so the per-iteration
cost should drop roughly quadratically in L.  This demo times the loop body
for the surface counts of ``bench_spec.json`` (L in {2, 4, 8} at L*M = 64)
and prints the measured scaling; ``gpris bench demos/bench_spec.json``
writes the same measurement as a JSON report.

Runs in a few seconds; the first run also builds the compiled phase-stage
loop (see gpris._kernel).

    python demos/scaling_benchmark.py
"""

from pathlib import Path

from gpris.harness import bench_from_spec, load_spec


def main() -> None:
    spec = load_spec(str(Path(__file__).with_name("bench_spec.json")))
    result = bench_from_spec(spec)
    print(f"{'L':>4} {'M':>4} {'s/iter':>12} {'vs L=2':>8}")
    base = result.rows[0].per_iter_seconds
    for row in result.rows:
        print(f"{row.n_ris:4d} {row.elems_per_ris:4d} {row.per_iter_seconds:12.3e} "
              f"{row.per_iter_seconds / base:8.3f}")
    print(f"\nlog-log slope of time vs L: {result.loglog_slope:.2f} "
          "(block solves alone would give -2)")


if __name__ == "__main__":
    main()

"""Sweep the verification battery over every partition in a box.

For each partition lambda with at most --max-rows rows and parts at most
--max-part, and for each variable count in --n-values, this runs the full
desk-scale battery: the two tableau models are compared coefficient by
coefficient at every dominant content (a weakly decreasing exponent, which
fixes its whole orbit since both models are symmetric), the Newton polytope
of every homogeneous component is checked against the predicted
permutahedron, the support-dominance and chain-cover claims are tested,
the Minkowski-sum claim (b) is sampled over --trials seeded trials, the
chain-mix claim (c) and the prefix-sum lemmas are checked exactly at the
vertices of their weight polytopes, which decides them for all weights,
and the convex hull of the full support is rebuilt by brute force and
compared against the union of chain polytopes wherever grothsnp.battery
runs that sweep: for n at most 3, within the work bound of snp --brute.

Every check is exact rational arithmetic; there are no tolerances. The
report is a single JSON document, one entry per (lambda, n) pair, with
wall-clock timings and an overall verdict. Exit status is 0 if every check
of every pair passed, 1 if a check failed (the report is still written), and
2 on a usage error, an --out path that cannot be written (checked before
sweeping and again on writing), a stdout that cannot be written, or an
interrupt (Ctrl-C), each reported on one stderr line by the helpers of
grothsnp.battery, which also runs the checks.

Example:

    python3 scripts/desk_sweep.py --max-part 3 --max-rows 3 \
        --n-values 2,3 --trials 200 --jobs 4 --out sweep.json
"""

from __future__ import annotations

import argparse
import time

from grothsnp import battery


def run_battery(task: tuple[tuple[int, ...], int, int, int]) -> dict:
    """Run every applicable check for one (lambda, n) pair."""
    parts, n, trials, seed = task
    started = time.perf_counter()
    checks = battery.run_checks(parts, n, trials, seed)
    return {
        "lambda": list(parts),
        "n": n,
        "ok": all(entry["ok"] for entry in checks),
        "seconds": round(time.perf_counter() - started, 3),
        "checks": checks,
    }


def sweep(args: argparse.Namespace) -> dict:
    from grothsnp import partitions_in_box  # after parsing: --help needs no math

    tasks = [
        (lam.parts, n, args.trials, args.seed)
        for n in args.n_values
        for lam in partitions_in_box(args.max_rows, args.max_part)
        if len(lam.parts) <= n
    ]
    results = battery.map_jobs(run_battery, tasks, args.jobs)

    failures = [entry for entry in results if not entry["ok"]]
    return {
        "config": {
            "max_part": args.max_part,
            "max_rows": args.max_rows,
            "n_values": list(args.n_values),
            "trials": args.trials,
            "seed": args.seed,
        },
        "pairs": len(results),
        "failures": len(failures),
        "ok": not failures,
        "results": results,
    }


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed and validated arguments, --n-values as a tuple of ints; a
    bad value exits 2 with usage and one error line."""
    parser = battery.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-part", type=int, default=3,
                        help="largest allowed part (default 3)")
    parser.add_argument("--max-rows", type=int, default=3,
                        help="largest allowed number of rows (default 3)")
    parser.add_argument("--n-values", type=str, default="2,3",
                        help="comma-separated variable counts (default 2,3)")
    parser.add_argument("--trials", type=int, default=200,
                        help="seeded trials of claim b; claim c and the lemmas "
                             "are exact (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed of claim b's trials (default 0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here instead of stdout")
    args = parser.parse_args(argv)
    try:
        args.n_values = tuple(int(tok) for tok in args.n_values.split(",") if tok.strip())
    except ValueError:
        parser.error(f"could not parse --n-values {args.n_values!r}")
    if args.max_part < 0 or args.max_rows < 0:
        parser.error("box dimensions must be nonnegative")
    # The box always holds the empty partition, so each n gives a pair.
    if not args.n_values:
        parser.error("--n-values names no variable count; nothing to sweep")
    if len(set(args.n_values)) < len(args.n_values):
        parser.error("--n-values repeats a variable count; name each n once")
    if any(n < 1 for n in args.n_values):
        parser.error("every n must be a positive integer")
    if args.trials < 1:
        parser.error("trials must be a positive integer")
    if args.jobs < 1:
        parser.error("jobs must be a positive integer")
    return args


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)

    def produce() -> tuple[int, str, str]:
        import json

        report = sweep(args)
        summary = "all checks passed" if report["ok"] else "FAILURES PRESENT"
        note = f"{report['pairs']} pairs swept, {summary}; report in {args.out}\n"
        return (0 if report["ok"] else 1), json.dumps(report, indent=2) + "\n", note

    return battery.deliver(produce, args.out, "desk_sweep.py")


if __name__ == "__main__":
    raise SystemExit(main())

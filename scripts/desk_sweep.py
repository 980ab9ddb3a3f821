"""Sweep the verification battery over every partition in a box.

For each partition lambda with at most --max-rows rows and parts at most
--max-part, and for each variable count in --n-values, this runs the battery
of `grothsnp verify` on the Partition that the box yields: the two tableau
models are compared at every dominant content, each homogeneous component's
Newton polytope is checked against its permutahedron, claims a, b and c and
the prefix-sum lemmas are decided exactly from the chain shapes, and the hull
of the support of the full set-valued expansion is rebuilt by brute force and
compared with the union of chain polytopes wherever grothsnp.battery runs
that sweep: for n at most 3, where (lambda_1 + 1)^n * 2^(n+1), the sums it
takes, is within the work bound of snp --brute. --trials and --seed are
validated and echoed in the report's config; none is read.

Every check is exact integer arithmetic; there are no tolerances. The
report is a single JSON document, one entry per (lambda, n) pair, with
wall-clock timings and an overall verdict. A check whose values break an
invariant of the layers fails with the broken invariant as its detail, and
the sweep goes on to the next pair. Exit status is 0 if every check
of every pair passed, 1 if a check failed (the report is still written), and
2 on a usage error, an --out path that cannot be written (checked before
sweeping and again on writing), a stdout that cannot be written, exhausted
memory or an interrupt (Ctrl-C), each reported on one stderr line by
grothsnp.battery.deliver; that module also runs the checks.

--jobs is accepted and validated; the pairs run in one process, in sweep
order, so the report is the same at any --jobs apart from the seconds of
each pair.

Example:

    python3 scripts/desk_sweep.py --max-part 3 --max-rows 3 \
        --n-values 2,3 --out sweep.json
"""

from __future__ import annotations

import argparse
import time
from typing import TYPE_CHECKING

from grothsnp import battery

if TYPE_CHECKING:
    from grothsnp import Partition


def run_battery(lam: Partition, n: int) -> dict:
    """Run every applicable check for one (lambda, n) pair."""
    started = time.perf_counter()
    checks = battery.run_checks(lam, n)
    return {
        "lambda": lam.parts,
        "n": n,
        "ok": all(entry["ok"] for entry in checks),
        "seconds": round(time.perf_counter() - started, 3),
        "checks": checks,
    }


def sweep(args: argparse.Namespace) -> dict:
    from grothsnp import partitions_in_box  # after parsing: --help needs no math

    results = [
        run_battery(lam, n)
        for n in args.n_values
        for lam in partitions_in_box(args.max_rows, args.max_part)
        if len(lam.parts) <= n
    ]
    failures = [entry for entry in results if not entry["ok"]]
    return {
        "config": {
            "max_part": args.max_part,
            "max_rows": args.max_rows,
            "n_values": args.n_values,
            "trials": args.trials,
            "seed": args.seed,
        },
        "pairs": len(results),
        "failures": len(failures),
        "ok": not failures,
        "results": results,
    }


def counts(text: str) -> tuple[int, ...]:
    """The argparse type of --n-values: distinct counts between commas."""
    entries = [entry.strip() for entry in text.split(",")]
    if not any(entries):  # the box always holds the empty partition: one pair per n
        raise argparse.ArgumentTypeError("names no variable count; nothing to sweep")
    if not all(entries):
        raise argparse.ArgumentTypeError(f"empty entry in {text!r}")
    values = tuple(map(battery.count, entries))
    if len(set(values)) < len(values):
        raise argparse.ArgumentTypeError("repeats a variable count; name each n once")
    return values


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    """The parsed arguments; a bad value exits 2 with usage and one error line."""
    parser = battery.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-part", type=battery.size, default=3,
                        help="largest allowed part (default 3)")
    parser.add_argument("--max-rows", type=battery.size, default=3,
                        help="largest allowed number of rows (default 3)")
    parser.add_argument("--n-values", type=counts, default="2,3",
                        help="comma-separated variable counts (default 2,3)")
    parser.add_argument("--trials", type=battery.count, default=200,
                        help="echoed in the report; every check is exact and "
                             "no check reads it (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="echoed in the report; no check reads it (default 0)")
    parser.add_argument("--jobs", type=battery.count, default=1,
                        help="accepted and validated; the pairs run in one "
                             "process (default 1)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here instead of stdout")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)

    def produce() -> tuple[int, str, str]:
        report = sweep(args)
        summary = "all checks passed" if report["ok"] else "FAILURES PRESENT"
        note = f"{report['pairs']} pairs swept, {summary}; report in {args.out}\n"
        return (0 if report["ok"] else 1), battery.dump_json(report), note

    return battery.deliver(produce, args.out, "desk_sweep.py")


if __name__ == "__main__":
    raise SystemExit(main())

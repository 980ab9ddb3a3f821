"""Sweep the verification battery over every partition in a box.

For each partition lambda with at most --max-rows rows and parts at most
--max-part, and for each variable count in --n-values, this runs the full
desk-scale battery: the two tableau models are compared coefficient by
coefficient, the Newton polytope of every homogeneous component is checked
against the predicted permutahedron, the support-dominance and chain-cover
claims are tested, the randomized interior-point and vertex-decomposition
claims are sampled, the prefix-sum lemmas are exercised on random convex
weights, and (for n at most 3) the convex hull of the full support is
rebuilt by brute force and compared against the union of chain polytopes.

Every check is exact rational arithmetic; there are no tolerances. The
report is a single JSON document, one entry per (lambda, n) pair, with
wall-clock timings and an overall verdict. Exit status is 0 if every check
of every pair passed, 1 if a check failed (the report is still written), and
2 on a usage error, an --out path that cannot be written (checked before
sweeping and again on writing) or an interrupt (Ctrl-C).

Example:

    python3 scripts/desk_sweep.py --max-part 3 --max-rows 3 \
        --n-values 2,3 --trials 200 --jobs 4 --out sweep.json
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass

from grothsnp import battery, partitions_in_box


@dataclass(frozen=True)
class SweepConfig:
    max_part: int
    max_rows: int
    n_values: tuple[int, ...]
    trials: int
    seed: int
    jobs: int
    out: str | None

    def __post_init__(self) -> None:
        if self.max_part < 0 or self.max_rows < 0:
            raise ValueError("box dimensions must be nonnegative")
        # The box always holds the empty partition, so each n gives a pair.
        if not self.n_values:
            raise ValueError("--n-values names no variable count; nothing to sweep")
        if any(n < 1 for n in self.n_values):
            raise ValueError("every n must be a positive integer")
        if self.trials < 1:
            raise ValueError("trials must be a positive integer")
        if self.jobs < 1:
            raise ValueError("jobs must be a positive integer")


def run_battery(task: tuple[tuple[int, ...], int, int, int]) -> dict:
    """Run every applicable check for one (lambda, n) pair."""
    parts, n, trials, seed = task
    started = time.perf_counter()
    checks = [
        battery.run_check((name, parts, n, trials, seed))
        for name in battery.checks_for(n)
    ]
    return {
        "lambda": list(parts),
        "n": n,
        "ok": all(entry["ok"] for entry in checks),
        "seconds": round(time.perf_counter() - started, 3),
        "checks": checks,
    }


def sweep(config: SweepConfig) -> dict:
    tasks = [
        (lam.parts, n, config.trials, config.seed)
        for n in config.n_values
        for lam in partitions_in_box(config.max_rows, config.max_part)
        if len(lam.parts) <= n
    ]
    results = battery.map_jobs(run_battery, tasks, config.jobs)

    failures = [entry for entry in results if not entry["ok"]]
    return {
        "config": {
            "max_part": config.max_part,
            "max_rows": config.max_rows,
            "n_values": list(config.n_values),
            "trials": config.trials,
            "seed": config.seed,
        },
        "pairs": len(results),
        "failures": len(failures),
        "ok": not failures,
        "results": results,
    }


def parse_args(argv: list[str] | None = None) -> SweepConfig:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--max-part", type=int, default=3,
                        help="largest allowed part (default 3)")
    parser.add_argument("--max-rows", type=int, default=3,
                        help="largest allowed number of rows (default 3)")
    parser.add_argument("--n-values", type=str, default="2,3",
                        help="comma-separated variable counts (default 2,3)")
    parser.add_argument("--trials", type=int, default=200,
                        help="randomized trials per sampled check (default 200)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for the randomized checks (default 0)")
    parser.add_argument("--jobs", type=int, default=1,
                        help="worker processes (default 1)")
    parser.add_argument("--out", type=str, default=None,
                        help="write the JSON report here instead of stdout")
    args = parser.parse_args(argv)
    try:
        n_values = tuple(int(tok) for tok in args.n_values.split(",") if tok.strip())
    except ValueError:
        parser.error(f"could not parse --n-values {args.n_values!r}")
    try:
        return SweepConfig(
            max_part=args.max_part,
            max_rows=args.max_rows,
            n_values=n_values,
            trials=args.trials,
            seed=args.seed,
            jobs=args.jobs,
            out=args.out,
        )
    except ValueError as exc:
        parser.error(str(exc))


def main(argv: list[str] | None = None) -> int:
    config = parse_args(argv)
    if config.out is not None:
        # Imported only here: loading the CLI module would slow every start-up.
        from grothsnp.cli import out_path_error, refuse_out, write_out

        reason = out_path_error(config.out)
        if reason is not None:
            return refuse_out(config.out, reason, "desk_sweep.py")
    try:
        report = sweep(config)
    except KeyboardInterrupt:
        print("desk_sweep.py: error: interrupted", file=sys.stderr)
        return 2
    text = json.dumps(report, indent=2) + "\n"
    if config.out is None:
        sys.stdout.write(text)
    else:
        reason = write_out(config.out, text)
        if reason is not None:
            return refuse_out(config.out, reason, "desk_sweep.py")
        summary = "all checks passed" if report["ok"] else "FAILURES PRESENT"
        print(f"{report['pairs']} pairs swept, {summary}; report in {config.out}")
    return 0 if report["ok"] else 1


if __name__ == "__main__":
    raise SystemExit(main())

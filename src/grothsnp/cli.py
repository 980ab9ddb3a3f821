"""Command-line front end: compute, verify, and export.

Subcommands mirror the library surface. All output is deterministic: JSON
objects are assembled in fixed key order, point lists are sorted, and every
verification command takes an explicit seed, so identical invocations produce
byte-identical files. Exit codes: 0 success or verified, 1 verification
failure (the report still goes to the output), 2 usage error, an --out path
that cannot be written (checked before computing and again on writing), a
stdout that cannot be written (a full disk, a closed pipe), or an interrupt
(Ctrl-C), each reported on one stderr line.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass
from typing import Sequence

from . import battery
from .grothendieck import grothendieck_lenart, mu_chain, schur_expansion
from .partitions import Partition
from .polytopes import (
    Permutahedron,
    permutahedron_lattice_points,
    snp_check_bruteforce,
    snp_check_symmetric_fast,
)

COMMANDS = ("expand", "groth", "chain", "newton", "snp", "verify", "figure-data")


@dataclass(frozen=True)
class RunConfig:
    """One fully validated invocation."""

    command: str
    lam: Partition
    n: int
    out: str | None = None
    jobs: int = 1
    brute: bool = False
    checks: tuple[str, ...] = ()
    trials: int = 1000
    seed: int = 0

    def __post_init__(self) -> None:
        if self.command not in COMMANDS:
            raise ValueError(f"unknown command {self.command!r}")
        if self.n < 1:
            raise ValueError("n must be at least 1")
        if len(self.lam) > self.n:
            raise ValueError(f"lambda has {len(self.lam)} rows but n = {self.n}")
        if self.jobs < 1:
            raise ValueError("jobs must be at least 1")
        if self.trials < 1:
            raise ValueError("trials must be at least 1")


def _parse_partition(text: str) -> Partition:
    if text.strip() == "":
        return Partition(())
    try:
        parts = tuple(int(tok) for tok in text.split(","))
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a comma-separated integer list, got {text!r}"
        )
    try:
        return Partition(parts)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc))


def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "--lambda",
        dest="lam",
        type=_parse_partition,
        default=Partition(()),
        metavar="PARTS",
        help="partition as a comma-separated weakly decreasing list, e.g. 3,1,0",
    )
    common.add_argument("--n", type=int, required=True, help="number of variables")
    common.add_argument("--out", default=None, metavar="PATH", help="output file")

    parser = battery.ArgumentParser(
        prog="grothsnp",
        description="Symmetric Grothendieck polynomials and their Newton polytopes",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    sub.add_parser("expand", parents=[common], help="Schur expansion JSON")
    sub.add_parser("groth", parents=[common], help="monomial-level polynomial JSON")
    sub.add_parser("chain", parents=[common], help="greedy box-adding chain JSON")
    sub.add_parser("newton", parents=[common], help="per-degree polytope JSON")
    snp = sub.add_parser("snp", parents=[common], help="saturation verdict JSON")
    snp.add_argument(
        "--brute",
        action="store_true",
        help="force the bounding-box sweep with the hull oracle",
    )
    verify = sub.add_parser("verify", parents=[common], help="run checks, report JSON")
    verify.add_argument("--all", action="store_true", help="run the full battery")
    verify.add_argument(
        "--claim", choices=("a", "b", "c"), default=None, help="run one claim check"
    )
    verify.add_argument(
        "--lemmas", action="store_true", help="run the prefix-sum identities"
    )
    verify.add_argument("--trials", type=int, default=1000, help="seeded trial count")
    verify.add_argument("--seed", type=int, default=0, help="random seed")
    verify.add_argument(
        "--jobs", type=int, default=1, metavar="K", help="worker processes"
    )
    sub.add_parser("figure-data", parents=[common], help="lattice points as CSV")
    return parser


def _config_from_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> RunConfig:
    checks: tuple[str, ...] = ()
    if args.command == "verify":
        if args.all or (args.claim is None and not args.lemmas):
            checks = battery.CHECKS
        else:
            picked = []
            if args.claim is not None:
                picked.append(f"claim-{args.claim}")
            if args.lemmas:
                picked.append("lemmas")
            checks = tuple(picked)
    try:
        return RunConfig(
            command=args.command,
            lam=args.lam,
            n=args.n,
            out=args.out,
            jobs=getattr(args, "jobs", 1),
            brute=getattr(args, "brute", False),
            checks=checks,
            trials=getattr(args, "trials", 1000),
            seed=getattr(args, "seed", 0),
        )
    except ValueError as exc:
        parser.error(str(exc))
        raise AssertionError("unreachable")


def _dump_json(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _run_expand(config: RunConfig) -> tuple[int, str]:
    return 0, _dump_json(schur_expansion(config.lam, config.n).to_json_dict())


def _run_groth(config: RunConfig) -> tuple[int, str]:
    return 0, _dump_json(grothendieck_lenart(config.lam, config.n).to_json_dict())


def _run_chain(config: RunConfig) -> tuple[int, str]:
    return 0, _dump_json(mu_chain(config.lam, config.n).to_json_dict())


def _run_newton(config: RunConfig) -> tuple[int, str]:
    chain = mu_chain(config.lam, config.n)
    base = config.lam.size()
    components = []
    for k, mu in enumerate(chain.mus):
        perm = Permutahedron.of_partition(mu, config.n)
        entry = {"degree": base + k}
        entry.update(perm.to_json_dict())
        components.append(entry)
    payload = {
        "lambda": list(config.lam.parts),
        "n": config.n,
        "components": components,
    }
    return 0, _dump_json(payload)


def _run_snp(config: RunConfig) -> tuple[int, str]:
    payload = {
        "lambda": list(config.lam.parts),
        "n": config.n,
        "method": "brute" if config.brute else "fast",
    }
    if config.brute:
        verdict = snp_check_bruteforce(grothendieck_lenart(config.lam, config.n))
        payload["snp"] = verdict.is_snp
        payload["violation"] = list(verdict.violation) if verdict.violation else None
        payload["hull_lattice_points"] = [
            list(pt) for pt in sorted(verdict.hull_lattice_points)
        ]
    else:
        verdict = snp_check_symmetric_fast(config.lam, config.n)
        payload["snp"] = verdict.is_snp
        payload["violation"] = list(verdict.violation) if verdict.violation else None
        payload["components"] = [
            {"degree": config.lam.size() + k, "weight": list(perm.weight)}
            for k, perm in enumerate(verdict.components)
        ]
    payload["detail"] = verdict.detail
    return (0 if verdict.is_snp else 1), _dump_json(payload)


def _run_verify(config: RunConfig) -> tuple[int, str]:
    tasks = [
        (name, config.lam.parts, config.n, config.trials, config.seed)
        for name in battery.checks_for(config.n, config.checks)
    ]
    results = battery.map_jobs(battery.run_check, tasks, config.jobs)
    all_ok = all(entry["ok"] for entry in results)
    payload = {
        "lambda": list(config.lam.parts),
        "n": config.n,
        "trials": config.trials,
        "seed": config.seed,
        "checks": results,
        "ok": all_ok,
    }
    return (0 if all_ok else 1), _dump_json(payload)


def _run_figure_data(config: RunConfig) -> tuple[int, str]:
    chain = mu_chain(config.lam, config.n)
    base = config.lam.size()
    lines = []
    for k, mu in enumerate(chain.mus):
        perm = Permutahedron.of_partition(mu, config.n)
        for pt in sorted(permutahedron_lattice_points(perm)):
            coords = [str(pt[i]) if i < config.n else "-" for i in range(3)]
            lines.append(",".join(coords + [str(base + k)]))
    return 0, "\n".join(lines) + "\n"


_HANDLERS = {
    "expand": _run_expand,
    "groth": _run_groth,
    "chain": _run_chain,
    "newton": _run_newton,
    "snp": _run_snp,
    "verify": _run_verify,
    "figure-data": _run_figure_data,
}


def run(config: RunConfig) -> tuple[int, str]:
    """Execute one config; returns (exit status, serialized output)."""
    return _HANDLERS[config.command](config)


def out_path_error(path: str) -> str | None:
    """Why a file cannot be created at path, or None if its directory is a
    writable directory."""
    parent = os.path.dirname(os.path.abspath(path))
    if not os.path.isdir(parent):
        return f"no directory {parent}"
    if not os.access(parent, os.W_OK):
        return f"directory {parent} is not writable"
    return None


def write_out(path: str, text: str) -> str | None:
    """Write text to path; the reason on failure, None on success."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        return exc.strerror or str(exc)
    return None


def refuse_out(path: str, reason: str, prog: str = "grothsnp") -> int:
    """Report an unwritable --out on one stderr line; returns exit status 2."""
    print(f"{prog}: error: cannot write --out {path}: {reason}", file=sys.stderr)
    return 2


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    if args.command == "figure-data" and args.n > 3:
        parser.error("figure export limited to n ≤ 3")
    config = _config_from_args(parser, args)
    if config.out is not None:
        reason = out_path_error(config.out)
        if reason is not None:
            return refuse_out(config.out, reason)
    try:
        status, text = run(config)
        if config.out is None:
            return battery.write_stdout(text) or status
        reason = write_out(config.out, text)
        if reason is not None:
            return refuse_out(config.out, reason)
    except KeyboardInterrupt:
        print("grothsnp: error: interrupted", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    sys.exit(main())

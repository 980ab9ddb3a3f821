"""Command-line front end: compute, verify, and export.

Subcommands mirror the library surface. Each subparser names its handler, and
run() hands it the parsed argparse namespace. Each handler writes its own
report, so this module alone knows the shape of every report; the math layers
return data. All output is deterministic: JSON objects are assembled in fixed
key order, point lists are sorted, and every check is exact, with no sampled
step, so identical invocations produce byte-identical files. Exit codes: 0
success or verified, 1 verification failure (the report still goes to the
output), 2 usage error (snp --brute past the work bound
battery.BRUTE_WORK_LIMIT among them), an --out path that cannot be written
(checked before computing and again on writing), a stdout that cannot be
written (a full disk, a closed pipe or fd), exhausted memory or an interrupt
(Ctrl-C), each reported on one stderr line by battery.deliver. Each handler
imports the layers it uses, so `--help` loads none of them.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Sequence

from . import battery

if TYPE_CHECKING:
    from .partitions import Partition


def _parse_partition(text: str) -> Partition:
    from .partitions import Partition

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
        default="",  # argparse runs a string default through _parse_partition
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

    def command(name: str, handler, help_text: str) -> argparse.ArgumentParser:
        subparser = sub.add_parser(name, parents=[common], help=help_text)
        subparser.set_defaults(handler=handler)
        return subparser

    command("expand", _run_expand, "Schur expansion JSON")
    command("groth", _run_groth, "monomial-level polynomial JSON")
    command("chain", _run_chain, "greedy box-adding chain JSON")
    command("newton", _run_newton, "per-degree polytope JSON")
    snp = command("snp", _run_snp, "saturation verdict JSON")
    snp.add_argument(
        "--brute",
        action="store_true",
        help="force the bounding-box sweep with the hull oracle",
    )
    verify = command("verify", _run_verify, "run checks, report JSON")
    verify.add_argument(
        "--claim",
        choices=("a", "b", "c"),
        default=None,
        help="run one claim check (b restates the Minkowski-sum fact and cannot fail)",
    )
    verify.add_argument(
        "--lemmas", action="store_true", help="run the prefix-sum identities"
    )
    verify.add_argument(
        "--trials",
        type=int,
        default=1000,
        help="echoed in the report; every check is exact and no check reads it",
    )
    verify.add_argument(
        "--seed", type=int, default=0, help="echoed in the report; no check reads it"
    )
    verify.add_argument(
        "--jobs", type=int, default=1, metavar="K", help="the checks run in one process"
    )
    command("figure-data", _run_figure_data, "lattice points as CSV")
    return parser


def _check_args(parser: argparse.ArgumentParser, args: argparse.Namespace) -> None:
    """Refuse the values argparse cannot check by itself as usage errors
    (exit 2); the first one found is reported."""
    if args.command == "figure-data" and args.n > 3:
        parser.error("figure export limited to n ≤ 3")
    if args.n < 1:
        parser.error("n must be at least 1")
    if len(args.lam) > args.n:
        parser.error(f"lambda has {len(args.lam)} rows but n = {args.n}")
    if args.command == "snp" and args.brute:
        work = battery.brute_work(args.lam.parts, args.n)
        limit = battery.BRUTE_WORK_LIMIT
        if work > limit:
            parser.error(
                f"snp --brute limited to (lambda_1 + 1)^n * 3^n ≤ {limit:,}, "
                f"got {work:,}; drop --brute for the degreewise check"
            )
    if args.command == "verify":
        if args.jobs < 1:
            parser.error("jobs must be at least 1")
        if args.trials < 1:
            parser.error("trials must be at least 1")


def _run_expand(args: argparse.Namespace) -> tuple[int, str]:
    from .grothendieck import schur_expansion

    terms = schur_expansion(args.lam, args.n).terms
    listed = [{"mu": list(mu.parts), "coeff": coeff} for mu, coeff in terms]
    payload = {"lambda": list(args.lam.parts), "n": args.n, "terms": listed}
    return 0, battery.dump_json(payload)


def _run_groth(args: argparse.Namespace) -> tuple[int, str]:
    from .grothendieck import grothendieck_lenart_dominant
    from .polytopes import _orbit

    # G_lambda by symmetry: each dominant term over its orbit, in graded-lex order
    dominant = grothendieck_lenart_dominant(args.lam, args.n)
    terms = sorted((sum(w), exp, c) for w, c in dominant.items() for exp in _orbit(w))
    listed = [{"exp": list(exp), "coeff": c} for _, exp, c in terms]
    return 0, battery.dump_json({"n": args.n, "terms": listed})


def _run_chain(args: argparse.Namespace) -> tuple[int, str]:
    from .grothendieck import mu_chain

    chain = mu_chain(args.lam, args.n)
    mus = [list(mu.padded(args.n)) for mu in chain.mus]
    return 0, battery.dump_json({"mus": mus, "rows": list(chain.rows)})


def _run_newton(args: argparse.Namespace) -> tuple[int, str]:
    from .grothendieck import mu_chain
    from .polytopes import newton_components, permutahedron_vertices as vertices
    from .polytopes import permutahedron_lattice_points as lattice_points

    components = [
        {
            "degree": degree,
            "weight": list(perm.weight),
            "n": args.n,
            "vertices": [list(v) for v in sorted(vertices(perm))],
            "lattice_points": [list(v) for v in sorted(lattice_points(perm))],
        }
        for degree, perm in newton_components(mu_chain(args.lam, args.n))
    ]
    payload = {"lambda": list(args.lam.parts), "n": args.n, "components": components}
    return 0, battery.dump_json(payload)


def _run_snp(args: argparse.Namespace) -> tuple[int, str]:
    from .grothendieck import grothendieck_setvalued, mu_chain
    from .polytopes import newton_components, snp_check_bruteforce
    from .polytopes import snp_check_symmetric_fast

    verdict = (
        snp_check_bruteforce(grothendieck_setvalued(args.lam, args.n))
        if args.brute
        else snp_check_symmetric_fast(args.lam, args.n)
    )
    payload = {
        "lambda": list(args.lam.parts),
        "n": args.n,
        "method": "brute" if args.brute else "fast",
        "snp": verdict.is_snp,
        "violation": list(verdict.violation) if verdict.violation else None,
    }
    if args.brute:
        payload["hull_lattice_points"] = [
            list(pt) for pt in sorted(verdict.hull_lattice_points)
        ]
    else:
        payload["components"] = [
            {"degree": degree, "weight": list(perm.weight)}
            for degree, perm in newton_components(mu_chain(args.lam, args.n))
        ]
    payload["detail"] = verdict.detail
    return (0 if verdict.is_snp else 1), battery.dump_json(payload)


def _verify_names(args: argparse.Namespace) -> Sequence[str]:
    """The checks verify selects: the whole battery unless --claim or
    --lemmas narrows it."""
    names = ([f"claim-{args.claim}"] if args.claim else []) + ["lemmas"] * args.lemmas
    return names or battery.CHECKS


def _run_verify(args: argparse.Namespace) -> tuple[int, str]:
    results = battery.run_checks(args.lam, args.n, _verify_names(args))
    all_ok = all(entry["ok"] for entry in results)
    payload = {
        "lambda": list(args.lam.parts),
        "n": args.n,
        "trials": args.trials,
        "seed": args.seed,
        "checks": results,
        "ok": all_ok,
    }
    return (0 if all_ok else 1), battery.dump_json(payload)


def figure_data(lam: Partition, n: int) -> str:
    """The lattice points of every polytope in the chain of lam as CSV lines
    x,y,z,degree, with "-" in the coordinate columns beyond n <= 3."""
    from .grothendieck import mu_chain
    from .polytopes import newton_components, permutahedron_lattice_points

    lines = []
    for degree, perm in newton_components(mu_chain(lam, n)):
        for pt in sorted(permutahedron_lattice_points(perm)):
            coords = [str(pt[i]) if i < n else "-" for i in range(3)]
            lines.append(",".join(coords + [str(degree)]))
    return "\n".join(lines) + "\n"


def _run_figure_data(args: argparse.Namespace) -> tuple[int, str]:
    return 0, figure_data(args.lam, args.n)


def run(args: argparse.Namespace) -> tuple[int, str]:
    """Execute one parsed invocation; returns (exit status, serialized output)."""
    return args.handler(args)


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    _check_args(parser, args)
    return battery.deliver(lambda: (*run(args), None), args.out)


if __name__ == "__main__":
    sys.exit(main())

"""The verification battery, shared by `grothsnp verify` and the desk sweep.

run_checks calls run_check(name, lambda parts, n) once per check in the
calling process, which returns one record `{"name", "ok", "detail"}` per
check, in the order the checks were named. Every check is exact, so a check
takes no trial count or seed, and the records are the same on every run.
This module alone decides where the brute-force sweep runs: run_checks
skips brute-snp above BRUTE_SNP_MAX_N variables or past BRUTE_WORK_LIMIT,
the work bound at which snp --brute is refused.

The cross-oracle and component-snp checks read G_lambda at dominant contents
only. cross-oracle compares the dominant coefficients of the two tableau
models, which decides equality of the full polynomials because both are
symmetric; a test pins that symmetry against the full monomial expansions.

The module also holds the exit-2 contract of every entry point: `fail`
prints the one `<prog>: error: <message>` stderr line, write_stdout and the
ArgumentParser that routes --help through it report an unwritable or closed
stdout, and deliver runs an entry point's work: it checks the --out
directory first, writes the report to --out or stdout, and turns Ctrl-C into
one line. dump_json gives every JSON report and manifest the same text.
The scripts load it before they parse their arguments, so it imports only the
standard library when loaded, and `--help` compiles no math layer: run_check
imports the math layers when it is first called.
"""

from __future__ import annotations

import argparse
import contextlib
import errno
import os
import sys
from typing import Callable, Sequence

CHECKS = (
    "cross-oracle",
    "component-snp",
    "claim-a",
    "claim-b",
    "claim-c",
    "lemmas",
    "brute-snp",
)
BRUTE_SNP_MAX_N = 3  # brute-snp runs in at most this many variables, see run_checks

# The brute-force sweep (snp --brute, brute-snp) holds each point of the
# support's bounding box against up to 3^n inequalities, and no exponent of
# G_lambda exceeds lambda_1 (a variable appears at most once per column of a
# set-valued tableau), so (lambda_1 + 1)^n * 3^n bounds its work before
# G_lambda is expanded. Just under the limit, (3,1) at n = 6 sweeps in about
# 1.3 s on a 2-vCPU shared host; (2,1) at n = 8, 14 times over it, took 27 s.
BRUTE_WORK_LIMIT = 3_000_000


def brute_work(parts: Sequence[int], n: int) -> int:
    """The bound (lambda_1 + 1)^n * 3^n on the brute-force sweep's work."""
    return (max(parts, default=0) + 1) ** n * 3**n


def run_check(name: str, parts: tuple[int, ...], n: int) -> dict:
    """The record of the check name on lambda = parts in n variables."""
    # Looked up per call, so each check runs what its home module holds
    # then; a tracer or a test may have rebound it.
    from .grothendieck import (
        check_claim_a,
        check_claim_b,
        check_claim_c,
        check_lemmas_random,
        grothendieck_lenart,
        grothendieck_lenart_dominant,
        grothendieck_setvalued_dominant,
        mu_chain,
    )
    from .partitions import Partition
    from .polytopes import (
        Permutahedron,
        permutahedron_lattice_points,
        snp_check_bruteforce,
        snp_check_symmetric_fast,
    )

    lam = Partition(parts)
    if name == "cross-oracle":
        same = grothendieck_lenart_dominant(lam, n) == grothendieck_setvalued_dominant(
            lam, n
        )
        return {
            "name": name,
            "ok": same,
            "detail": "" if same else "tableau models disagree",
        }
    if name == "component-snp":
        verdict = snp_check_symmetric_fast(lam, n)
        return {"name": name, "ok": verdict.is_snp, "detail": verdict.detail}
    claims = {
        "claim-a": lambda: check_claim_a(lam, n),
        "claim-b": lambda: check_claim_b(mu_chain(lam, n)),
        "claim-c": lambda: check_claim_c(mu_chain(lam, n)),
        "lemmas": lambda: check_lemmas_random(mu_chain(lam, n)),
    }
    if name in claims:
        res = claims[name]()
        return {"name": name, "ok": res.ok, "detail": res.detail}
    if name == "brute-snp":
        verdict = snp_check_bruteforce(grothendieck_lenart(lam, n))
        expected = set()
        chain = mu_chain(lam, n)
        for mu in chain.mus:
            expected |= permutahedron_lattice_points(Permutahedron.of_partition(mu, n))
        ok = verdict.is_snp and verdict.hull_lattice_points == frozenset(expected)
        detail = verdict.detail
        if verdict.is_snp and not ok:
            detail = "hull lattice points differ from the chain polytopes"
        return {"name": name, "ok": ok, "detail": detail}
    raise ValueError(f"unknown check {name!r}")


def run_checks(
    parts: tuple[int, ...], n: int, names: Sequence[str] = CHECKS
) -> list[dict]:
    """The records of the checks among names that run in n variables, in the
    order of names, each from one run_check call.

    brute-snp runs only for n <= BRUTE_SNP_MAX_N and a brute_work bound
    within BRUTE_WORK_LIMIT, the limit of snp --brute. It sweeps the bounding
    box of the support, and its 0/+-1 valid inequalities leave no point for
    the exact simplex on any partition in a 3 x 3 box for n <= 5, at under a
    second each; the cap stays at 3 because perfbench/oracles.py expects
    brute-snp exactly for n <= 3."""
    brute = n <= BRUTE_SNP_MAX_N and brute_work(parts, n) <= BRUTE_WORK_LIMIT
    return [run_check(name, parts, n) for name in names if name != "brute-snp" or brute]


def dump_json(obj) -> str:
    """obj as the JSON text every report and manifest is written in: two-space
    indent and a final newline."""
    import json

    return json.dumps(obj, indent=2) + "\n"


def fail(message: str, prog: str = "grothsnp") -> int:
    """Report an error on one stderr line; returns exit status 2."""
    print(f"{prog}: error: {message}", file=sys.stderr)
    return 2


def write_stdout(text: str, prog: str = "grothsnp") -> int | None:
    """Write text to stdout and flush it; None on success. On failure, report
    it on one stderr line and return exit status 2."""
    if sys.stdout is None:  # fd 1 was closed when the interpreter started
        return fail(f"cannot write stdout: {os.strerror(errno.EBADF)}", prog)
    try:
        sys.stdout.write(text)
        sys.stdout.flush()
    except OSError as exc:
        # What is still buffered goes to devnull, so the flush at exit is quiet.
        with contextlib.suppress(OSError, ValueError):
            fd = sys.stdout.fileno()
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, fd)
            os.close(devnull)
        return fail(f"cannot write stdout: {exc.strerror or exc}", prog)
    return None


def deliver(
    produce: Callable[[], tuple[int, str, str | None]],
    out: str | None,
    prog: str = "grothsnp",
) -> int:
    """Run one entry point's work under the exit-2 contract; returns its exit
    status. produce() returns (status, report, note). With out, the report
    goes to that file, whose directory is checked before produce runs, and
    the note, if any, to stdout; without out, the report goes to stdout. An
    unwritable --out or stdout, or Ctrl-C, ends in one stderr line and 2."""
    refusal = f"cannot write --out {out}: "
    if out is not None:
        parent = os.path.dirname(os.path.abspath(out))
        if not os.path.isdir(parent):
            return fail(refusal + f"no directory {parent}", prog)
        if not os.access(parent, os.W_OK):
            return fail(refusal + f"directory {parent} is not writable", prog)
    try:
        status, text, note = produce()
        if out is not None:
            try:
                with open(out, "w", encoding="utf-8") as handle:
                    handle.write(text)
            except OSError as exc:
                return fail(refusal + (exc.strerror or str(exc)), prog)
            if note is None:
                return status
            text = note
        return write_stdout(text, prog) or status
    except KeyboardInterrupt:
        return fail("interrupted", prog)


class ArgumentParser(argparse.ArgumentParser):
    """An argparse parser whose help text on stdout goes through write_stdout:
    a stdout that cannot take it exits 2 after one stderr line, where plain
    argparse drops the text and exits 0, or exits 120 when the interpreter
    fails to flush it at exit. Subparsers inherit the class."""

    def print_help(self, file=None) -> None:
        if file is not None:
            super().print_help(file)
            return
        status = write_stdout(self.format_help(), self.prog.split()[0])
        if status is not None:
            self.exit(status)

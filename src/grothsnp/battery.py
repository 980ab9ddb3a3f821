"""The verification battery, shared by `grothsnp verify` and the desk sweep.

Each check takes one (name, lambda parts, n, trials, seed) task and returns
one record `{"name", "ok", "detail"}`. Tasks are plain tuples and the records
plain dicts, so both travel through a worker pool unchanged, and the report
lists them in the order the tasks were given.

The cross-oracle and component-snp checks read G_lambda at dominant contents
only. cross-oracle compares the dominant coefficients of the two tableau
models, which decides equality of the full polynomials because both are
symmetric; a test pins that symmetry against the full monomial expansions.

The module also holds the stdout contract of every entry point (write_stdout
and the ArgumentParser that routes --help through it). The scripts load it
before they parse their arguments, so the contract costs them no import.
"""

from __future__ import annotations

import argparse
import contextlib
import multiprocessing
import os
import signal
import sys
from typing import Callable, Sequence

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

CHECKS = (
    "cross-oracle",
    "component-snp",
    "claim-a",
    "claim-b",
    "claim-c",
    "lemmas",
    "brute-snp",
)


def checks_for(n: int, names: Sequence[str] = CHECKS) -> tuple[str, ...]:
    """The checks among names that run in n variables: brute-snp only for
    n <= 3, since it runs one exact simplex per bounding-box point outside
    the support."""
    return tuple(name for name in names if name != "brute-snp" or n <= 3)


def run_check(task: tuple[str, tuple[int, ...], int, int, int]) -> dict:
    """The record of one check; task is (name, lambda parts, n, trials, seed)."""
    name, parts, n, trials, seed = task
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
    if name == "claim-a":
        res = check_claim_a(lam, n)
        return {"name": name, "ok": res.ok, "detail": res.detail}
    if name == "claim-b":
        res = check_claim_b(mu_chain(lam, n), trials, seed)
        return {"name": name, "ok": res.ok, "detail": res.detail}
    if name == "claim-c":
        res = check_claim_c(mu_chain(lam, n), trials, seed)
        return {"name": name, "ok": res.ok, "detail": res.detail}
    if name == "lemmas":
        res = check_lemmas_random(mu_chain(lam, n), trials, seed)
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


def ignore_sigint() -> None:
    """Pool worker initializer: leave Ctrl-C to the parent, which reports it
    once and terminates the pool, so workers print no tracebacks."""
    signal.signal(signal.SIGINT, signal.SIG_IGN)


def map_jobs(fn: Callable, tasks: Sequence, jobs: int) -> list:
    """fn applied to each task, results in task order: in a pool of at most
    jobs workers when jobs > 1 and there are two tasks or more, else here."""
    if jobs > 1 and len(tasks) > 1:
        with multiprocessing.Pool(
            min(jobs, len(tasks)), initializer=ignore_sigint
        ) as pool:
            return pool.map(fn, tasks)
    return [fn(task) for task in tasks]


def write_stdout(text: str, prog: str = "grothsnp") -> int | None:
    """Write text to stdout and flush it; None on success. On failure, report
    it on one stderr line and return exit status 2."""
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
        reason = exc.strerror or exc
        print(f"{prog}: error: cannot write stdout: {reason}", file=sys.stderr)
        return 2
    return None


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

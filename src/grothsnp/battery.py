"""The verification battery, shared by `grothsnp verify` and the desk sweep.

run_checks calls run_check(name, lambda parts, n) once per check in the
calling process, which returns one record `{"name", "ok", "detail"}` per
check, in the order the checks were named. run_check dispatches on the name
in one if/elif and reads the check through its home module (grothendieck.X,
polytopes.X) at each call, so a tracer or a test that rebinds a check there
is seen. Every check is exact, so a check takes no trial count or seed, and
the records are the same on every run. This module alone decides where the
brute-force sweep runs: run_checks skips brute-snp above BRUTE_SNP_MAX_N
variables or past BRUTE_WORK_LIMIT, the work bound at which snp --brute is
refused.

The cross-oracle and component-snp checks read G_lambda at dominant contents
only. cross-oracle compares the dominant coefficients of the two tableau
models, which decides equality of the full polynomials because both are
symmetric; a test pins that symmetry against the full monomial expansions.

The module also holds the exit-2 contract of every entry point: `fail`
prints the one `<prog>: error: <message>` stderr line, write_stdout and the
ArgumentParser that routes --help through it report an unwritable or closed
stdout, and deliver alone runs an entry point's work: it checks --out first,
writes the report, and turns a file the work cannot write, exhausted memory
or Ctrl-C into that line. dump_json writes every JSON report and the manifest.
The scripts load it before they parse their arguments, so it imports only the
standard library when loaded, and `--help` compiles no math layer: run_check
imports the math layers when it is first called. Loading it freezes the heap
at exit, so no entry point, `--help` included, walks its live objects in the
interpreter's final collections.
"""

from __future__ import annotations

import argparse
import atexit
import contextlib
import errno
import gc
import os
import sys
from typing import Callable, Sequence

# At exit the interpreter's last collections walk every live object, all that
# `site` loaded included; a frozen heap is freed by reference counts alone.
# The freeze runs only as the process ends, so in-process callers of main keep
# a collected heap.
atexit.register(gc.freeze)

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
# G_lambda is expanded. The bound also caps the memory of the sweep, which
# holds the 3^n sums <d, p> of every support point p at once. Just under the
# limit, (3,1) at n = 6 sweeps in about 0.5 s at a 30 MiB peak as a child on a
# 2-vCPU shared host; (2,1) at n = 8 is 14 times over it.
BRUTE_WORK_LIMIT = 3_000_000


def brute_work(parts: Sequence[int], n: int) -> int:
    """The bound (lambda_1 + 1)^n * 3^n on the brute-force sweep's work."""
    return (max(parts, default=0) + 1) ** n * 3**n


def run_check(name: str, parts: tuple[int, ...], n: int) -> dict:
    """The record of the check name on lambda = parts in n variables."""
    from . import grothendieck as groth, polytopes
    from .partitions import Partition

    lam = Partition(parts)
    if name == "cross-oracle":
        lenart = groth.grothendieck_lenart_dominant(lam, n)
        same = lenart == groth.grothendieck_setvalued_dominant(lam, n)
        result = groth.CheckResult(same, "" if same else "tableau models disagree")
    elif name == "component-snp":
        verdict = polytopes.snp_check_symmetric_fast(lam, n)
        result = groth.CheckResult(verdict.is_snp, verdict.detail)
    elif name == "claim-a":
        result = groth.check_claim_a(lam, n)
    elif name == "claim-b":
        result = groth.check_claim_b(groth.mu_chain(lam, n))
    elif name == "claim-c":
        result = groth.check_claim_c(groth.mu_chain(lam, n))
    elif name == "lemmas":
        result = groth.check_lemmas_random(groth.mu_chain(lam, n))
    elif name == "brute-snp":
        verdict = polytopes.snp_check_bruteforce(groth.grothendieck_lenart(lam, n))
        expected = set()
        for _, perm in polytopes.newton_components(groth.mu_chain(lam, n)):
            expected |= polytopes.permutahedron_lattice_points(perm)
        ok = verdict.is_snp and verdict.hull_lattice_points == expected
        detail = verdict.detail
        if verdict.is_snp and not ok:
            detail = "hull lattice points differ from the chain polytopes"
        result = groth.CheckResult(ok, detail)
    else:
        raise ValueError(f"unknown check {name!r}")
    return {"name": name, "ok": result.ok, "detail": result.detail}


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


def write_file(path: str, text: str) -> None:
    """Write text to the file at path. An OSError on the way names path, even
    one from the flush at close, which names no file by itself."""
    try:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write(text)
    except OSError as exc:
        exc.filename = path
        raise


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
    unwritable --out or stdout, a file the work cannot write (an OSError that
    names it), a MemoryError or Ctrl-C ends in one stderr line and 2."""
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
                write_file(out, text)
            except OSError as exc:
                return fail(refusal + (exc.strerror or str(exc)), prog)
            if note is None:
                return status
            text = note
        return write_stdout(text, prog) or status
    except OSError as exc:
        if exc.filename is None:  # not a file the work writes: keep the traceback
            raise
        return fail(f"cannot write {exc.filename}: {exc.strerror or exc}", prog)
    except MemoryError:
        pass  # reported below, once the traceback and the work's frames are freed
    except KeyboardInterrupt:
        return fail("interrupted", prog)
    return fail("out of memory", prog)


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

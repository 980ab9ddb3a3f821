"""The verification battery, shared by `grothsnp verify` and the desk sweep.

Each check takes one (name, lambda parts, n, trials, seed) task and returns
one record `{"name", "ok", "detail"}`. Tasks are plain tuples and the records
plain dicts, so both travel through a worker pool unchanged, and the report
lists them in the order the tasks were given.
"""

from __future__ import annotations

import multiprocessing
import signal
from typing import Callable, Sequence

from .grothendieck import (
    check_claim_a,
    check_claim_b,
    check_claim_c,
    check_lemmas_random,
    grothendieck_lenart,
    grothendieck_setvalued,
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
        same = grothendieck_lenart(lam, n) == grothendieck_setvalued(lam, n)
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

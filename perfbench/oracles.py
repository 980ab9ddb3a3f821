"""Checks of grothsnp outputs against facts computed here, apart from the program.

Nothing in this module imports grothsnp. The greedy chain, Kostka numbers
(counted as Gelfand-Tsetlin patterns), dominance and the lattice-point counts
of permutahedra are all recomputed from their definitions, so a wrong answer
from the program cannot also be the expected answer.

Every check returns a list of error strings; an empty list means the output
passed. `self_check` feeds deliberately corrupted outputs to the same checks
and reports any corruption they fail to reject.
"""

from __future__ import annotations

import copy
from collections import Counter, defaultdict
from functools import lru_cache
from math import factorial, prod
from typing import Iterator

Vector = tuple[int, ...]

BATTERY = ("cross-oracle", "component-snp", "claim-a", "claim-b", "claim-c", "lemmas")


def battery(n: int) -> list[str]:
    """Check names `verify` must report at n: brute force only for n <= 3."""
    return list(BATTERY) + (["brute-snp"] if n <= 3 else [])


def padded(lam: Vector, n: int) -> Vector:
    return tuple(lam) + (0,) * (n - len(lam))


def greedy_chain(lam: Vector, n: int) -> list[Vector]:
    """mu^(0) = lam, then one box at a time into the northmost row r (1-based)
    whose surplus over lam is below r - 1 and that stays a partition."""
    base = padded(lam, n)
    cur = list(base)
    chain = [tuple(cur)]
    while True:
        for r in range(n):  # 0-based row r allows a surplus below r
            if cur[r] - base[r] < r and (r == 0 or cur[r] < cur[r - 1]):
                cur[r] += 1
                chain.append(tuple(cur))
                break
        else:
            return chain


def partitions_of(total: int, rows: int, cap: int | None = None) -> Iterator[Vector]:
    """Partitions of total with at most `rows` parts, padded to length rows."""
    cap = total if cap is None else cap
    if rows == 0:
        if total == 0:
            yield ()
        return
    for first in range(min(cap, total), -1, -1):
        if first * rows < total:
            break
        for rest in partitions_of(total - first, rows - 1, first):
            yield (first,) + rest


def dominated(nu: Vector, mu: Vector) -> bool:
    """nu <= mu in dominance order; both decreasing and of equal sum."""
    acc_nu = acc_mu = 0
    for a, b in zip(nu, mu):
        acc_nu += a
        acc_mu += b
        if acc_nu > acc_mu:
            return False
    return acc_nu == acc_mu


def orbit_size(v: Vector) -> int:
    """Number of distinct rearrangements of v."""
    return factorial(len(v)) // prod(factorial(m) for m in Counter(v).values())


def _interlacing(row: Vector, total: int) -> Iterator[Vector]:
    """Rows x of length len(row) - 1 with row[i] >= x[i] >= row[i + 1], sum total."""
    k = len(row) - 1

    def rec(i: int, left: int, prefix: Vector) -> Iterator[Vector]:
        if i == k:
            if left == 0:
                yield prefix
            return
        lows = sum(row[i + 1 : k + 1])
        highs = sum(row[i:k])
        if not lows <= left <= highs:
            return
        for x in range(row[i + 1], row[i] + 1):
            yield from rec(i + 1, left - x, prefix + (x,))

    yield from rec(0, total, ())


def kostka(lam: Vector, weight: Vector) -> int:
    """Semistandard tableaux of shape lam and content weight, counted as
    Gelfand-Tsetlin patterns: row k (length k) sums to weight[0] + ... + weight[k-1]."""

    @lru_cache(maxsize=None)
    def count(row: Vector) -> int:
        k = len(row)
        if k == 0:
            return 1
        below = sum(row) - weight[k - 1]
        return sum(count(x) for x in _interlacing(row, below))

    return count(tuple(lam))


def _terms(payload: dict, n: int, errors: list[str]) -> dict[Vector, int]:
    terms: dict[Vector, int] = {}
    for term in payload.get("terms", []):
        exp, coeff = tuple(term["exp"]), term["coeff"]
        if len(exp) != n or any(not isinstance(e, int) or e < 0 for e in exp):
            errors.append(f"bad exponent {list(exp)}")
        elif not isinstance(coeff, int) or coeff == 0:
            errors.append(f"bad coefficient {coeff!r} at {list(exp)}")
        elif exp in terms:
            errors.append(f"exponent {list(exp)} listed twice")
        else:
            terms[exp] = coeff
    return terms


def check_groth(payload: dict, lam: Vector, n: int) -> list[str]:
    """`groth` output for (lam, n): G(1,...,1) = 1, symmetry, degree range from
    the greedy chain, Kostka numbers in the lowest degree, and in degree
    |lam| + k exactly the integer vectors majorized by mu^(k)."""
    errors: list[str] = []
    if payload.get("n") != n:
        return [f"n is {payload.get('n')!r}, expected {n}"]
    terms = _terms(payload, n, errors)
    if errors:
        return errors
    if sum(terms.values()) != 1:
        errors.append(f"G(1,...,1) = {sum(terms.values())}, expected 1")
    orbits: dict[Vector, list[int]] = defaultdict(list)
    for exp, coeff in terms.items():
        orbits[tuple(sorted(exp, reverse=True))].append(coeff)
    for nu, coeffs in orbits.items():
        if len(coeffs) != orbit_size(nu) or len(set(coeffs)) != 1:
            errors.append(f"not symmetric on the orbit of {list(nu)}")
            break
    chain = greedy_chain(lam, n)
    base = sum(lam)
    degrees = sorted({sum(exp) for exp in terms})
    if degrees != list(range(base, base + len(chain))):
        errors.append(f"degrees {degrees}, expected {base}..{base + len(chain) - 1}")
    top = padded(lam, n)
    for nu in partitions_of(base, n):
        want = kostka(top, nu)
        if terms.get(nu, 0) != want:
            errors.append(f"lowest degree: coefficient {terms.get(nu, 0)} at {list(nu)}, Kostka {want}")
            break
    for k, mu in enumerate(chain):
        size = base + k
        support = [exp for exp in terms if sum(exp) == size]
        expected = sum(orbit_size(nu) for nu in partitions_of(size, n) if dominated(nu, mu))
        outside = [e for e in support if not dominated(tuple(sorted(e, reverse=True)), mu)]
        if outside or len(support) != expected:
            errors.append(
                f"degree {size}: {len(support)} terms ({len(outside)} outside P(mu^({k}))), "
                f"expected the {expected} lattice points of P({list(mu)})"
            )
    return errors


def check_verify(
    payload: dict, status: int, lam: Vector, n: int, trials: int, seed: int
) -> list[str]:
    """`verify` report: exit 0, every check of the battery for n present and ok."""
    errors = []
    if status != 0:
        errors.append(f"exit status {status}")
    echo = (payload.get("lambda"), payload.get("n"), payload.get("trials"), payload.get("seed"))
    if echo != (list(lam), n, trials, seed):
        errors.append(f"report echoes {echo}, expected {(list(lam), n, trials, seed)}")
    checks = payload.get("checks", [])
    names = [check.get("name") for check in checks]
    if names != battery(n):
        errors.append(f"checks {names}, expected {battery(n)}")
    failed = [check.get("name") for check in checks if check.get("ok") is not True]
    if failed:
        errors.append(f"checks failed: {failed}")
    if payload.get("ok") is not True:
        errors.append("report is not ok")
    return errors


def box_pairs(max_part: int, max_rows: int, n_values: list[int]) -> list[tuple[Vector, int]]:
    """Every (lambda, n): lambda in the max_rows x max_part box with at most n rows."""
    shapes = {
        nu[: len(nu) - nu.count(0)]
        for total in range(max_part * max_rows + 1)
        for nu in partitions_of(total, max_rows, max_part)
    }
    return sorted((lam, n) for n in n_values for lam in shapes if len(lam) <= n)


def check_sweep(payload: dict, status: int, max_part: int, max_rows: int,
                n_values: list[int], trials: int, seed: int) -> list[str]:
    """`desk_sweep.py` report: ok, one entry per pair of the box, each carrying
    the whole battery for its n (so brute-snp for every n <= 3)."""
    errors = []
    if status != 0:
        errors.append(f"exit status {status}")
    if payload.get("ok") is not True or payload.get("failures") != 0:
        errors.append("sweep is not ok")
    config = payload.get("config", {})
    if (config.get("trials"), config.get("seed")) != (trials, seed):
        errors.append(f"sweep ran trials/seed {config.get('trials')}/{config.get('seed')}")
    expected = box_pairs(max_part, max_rows, n_values)
    results = payload.get("results", [])
    if payload.get("pairs") != len(expected) or len(results) != len(expected):
        errors.append(f"{payload.get('pairs')} pairs reported, {len(results)} listed, "
                      f"expected {len(expected)}")
    seen = sorted((tuple(entry.get("lambda", [])), entry.get("n")) for entry in results)
    if seen != expected:
        errors.append("swept pairs differ from the box")
    for entry in results:
        names = [check.get("name") for check in entry.get("checks", [])]
        if names != battery(entry.get("n")) or "brute-snp" not in names:
            errors.append(f"pair {entry.get('lambda')}/{entry.get('n')} ran {names}")
        if entry.get("ok") is not True or not all(c.get("ok") is True for c in entry.get("checks", [])):
            errors.append(f"pair {entry.get('lambda')}/{entry.get('n')} failed")
    return errors


def check_clean_refusal(status: int, stderr: str) -> list[str]:
    """A usage or environment error: exit 2 and a one-line message, no traceback."""
    lines = stderr.strip().splitlines()
    if status == 2 and len(lines) == 1:
        return []
    return [f"exit status {status} with {len(lines)} lines on stderr"]


def self_check(groth: list[tuple[dict, Vector, int]], reports: list[tuple]) -> list[str]:
    """Corrupt outputs that passed and name each corruption a check accepts.

    groth holds (payload, lam, n) of `groth` outputs; reports holds
    (check, payload, status) of `verify` or sweep reports, where
    check(payload, status) returns the report's errors.
    """
    escaped = []
    for payload, lam, n in groth[:1]:
        bad = copy.deepcopy(payload)
        bad["terms"][len(bad["terms"]) // 2]["coeff"] += 1
        if not check_groth(bad, lam, n):
            escaped.append("groth with one coefficient perturbed")
        bad = copy.deepcopy(payload)
        top = max(sum(t["exp"]) for t in bad["terms"])
        bad["terms"] = [t for t in bad["terms"] if sum(t["exp"]) != top]
        if not check_groth(bad, lam, n):
            escaped.append("groth with its top degree dropped")
    for check, payload, status in reports[:1]:
        bad = copy.deepcopy(payload)
        if "results" in bad:
            del bad["results"][-1]["checks"][-1]
            what = "sweep report with brute-snp dropped from one pair"
        else:
            del bad["checks"][-1]
            what = "verify report with one check dropped"
        if not check(bad, status):
            escaped.append(what)
    return escaped

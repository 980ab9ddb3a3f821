"""Partitions, dominance order, and exact majorization arithmetic.

Everything here is an immutable value and every function is pure. The
arithmetic is exact, with no floats and no tolerances. There is one prefix-sum
order, `majorizes`; dominance of partitions is majorization of their parts.
It takes integers and ``fractions.Fraction`` values alike, so callers compare
rational vectors as integer numerators over a common denominator.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import zip_longest
from typing import Iterator, Sequence, Union

ExponentVector = tuple[int, ...]
RationalVector = tuple[Fraction, ...]
Rational = Union[int, Fraction]


@dataclass(frozen=True)
class Partition:
    """Weakly decreasing tuple of nonnegative integers, trailing zeros stripped.

    Equality and hashing see only the stripped form, so (3,1,0) == (3,1).
    """

    parts: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        cleaned = tuple(int(p) for p in self.parts)
        while cleaned and cleaned[-1] == 0:
            cleaned = cleaned[:-1]
        if any(p < 0 for p in cleaned):
            raise ValueError(f"partition parts must be nonnegative: {self.parts}")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {self.parts}")
        object.__setattr__(self, "parts", cleaned)

    def __len__(self) -> int:
        return len(self.parts)

    def __iter__(self) -> Iterator[int]:
        return iter(self.parts)

    def __repr__(self) -> str:
        return f"Partition({self.parts!r})"

    def size(self) -> int:
        """Total number of boxes."""
        return sum(self.parts)

    def part(self, r: int) -> int:
        """Length of row r (1-based); zero beyond the last row."""
        if r < 1:
            raise IndexError(f"row index must be >= 1, got {r}")
        return self.parts[r - 1] if r <= len(self.parts) else 0

    def padded(self, n: int) -> tuple[int, ...]:
        """The parts padded with zeros to length n."""
        if len(self.parts) > n:
            raise ValueError(f"partition {self.parts} has more than {n} rows")
        return self.parts + (0,) * (n - len(self.parts))

    def contains(self, other: Partition) -> bool:
        """Rowwise containment: other fits inside self."""
        return all(other.part(r) <= self.part(r) for r in range(1, len(other) + 1))

    def can_add_box(self, r: int) -> bool:
        """Whether adding one box to row r (1-based) leaves a Young diagram."""
        return r == 1 or self.part(r) + 1 <= self.part(r - 1)

    def add_box(self, r: int) -> Partition:
        """New partition with one extra box in row r; raises if not a diagram."""
        if not self.can_add_box(r):
            raise ValueError(f"cannot add a box to row {r} of {self.parts}")
        grown = list(self.padded(max(r, len(self.parts))))
        grown[r - 1] += 1
        return Partition(tuple(grown))


def dominance_leq(theta: Partition, delta: Partition) -> bool:
    """Dominance order on equal-size partitions: theta is below delta."""
    if theta.size() != delta.size():
        raise ValueError("dominance undefined across sizes")
    return majorizes(delta.parts, theta.parts)


def majorizes(mu: Sequence[Rational], v: Sequence[Rational]) -> bool:
    """True iff v is majorized by mu (equal sums, dominated prefix sums).

    mu must be weakly decreasing; v, in any order, is compared through its
    decreasing rearrangement, the shorter side padded with zeros.
    """
    if any(x < 0 for x in v):
        raise ValueError("majorization requires nonnegative entries")
    if sum(v) != sum(mu):
        raise ValueError("majorization undefined across unequal sums")
    acc_v = acc_m = 0
    for x, m in zip_longest(sorted(v, reverse=True), mu, fillvalue=0):
        acc_v += x
        acc_m += m
        if acc_v > acc_m:
            return False
    return True


def convex_combination(
    weights: Sequence[Rational], vectors: Sequence[Sequence[Rational]]
) -> RationalVector:
    """Componentwise weighted sum of vectors, exact rationals throughout.

    The package mixes integer numerators instead (grothendieck._mix); this
    Fraction form is the tests' reference, and perfbench/tracing.py wraps it
    by name.
    """
    coeffs = tuple(Fraction(w) for w in weights)
    if len(coeffs) != len(vectors):
        raise ValueError("one weight per vector required")
    if any(c < 0 for c in coeffs):
        raise ValueError("convex weights must be nonnegative")
    if sum(coeffs) != 1:
        raise ValueError("convex weights must sum to 1")
    if not vectors:
        raise ValueError("need at least one vector")
    n = len(vectors[0])
    if any(len(vec) != n for vec in vectors):
        raise ValueError("vectors must share a common length")
    return tuple(
        sum((c * Fraction(vec[i]) for c, vec in zip(coeffs, vectors)), Fraction(0))
        for i in range(n)
    )


def partitions_of_size(
    total: int, max_rows: int | None = None, max_part: int | None = None
) -> Iterator[Partition]:
    """All partitions of `total`, optionally bounded in rows and largest part."""
    rows_cap = total if max_rows is None else max_rows
    part_cap = total if max_part is None else max_part

    def rec(remaining: int, cap: int, depth: int, prefix: tuple[int, ...]):
        if remaining == 0:
            yield Partition(prefix)
            return
        if depth == rows_cap:
            return
        for p in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - p, p, depth + 1, prefix + (p,))

    yield from rec(total, part_cap, 0, ())


def partitions_in_box(max_rows: int, max_part: int) -> Iterator[Partition]:
    """All partitions fitting in a max_rows x max_part box, empty included."""
    for total in range(max_rows * max_part + 1):
        yield from partitions_of_size(total, max_rows=max_rows, max_part=max_part)

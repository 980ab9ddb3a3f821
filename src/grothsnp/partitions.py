"""Partitions, dominance order, and integer majorization.

Everything here is an immutable value and every function is pure. The
arithmetic is in integers, with no floats and no tolerances. There is one
prefix-sum order, `majorizes`; dominance of partitions is majorization of
their parts. It reads integers only, so callers compare rational vectors as
integer numerators over a common denominator, the form in which
`convex_combination` returns a mix.

The enumerators share one loop, `dominated_partitions`, which lists the
partitions a weight dominates, padded to its length, by a walk under its
prefix sums; those of a size within a box lie under the greatest of them.
"""

from __future__ import annotations

from itertools import accumulate, zip_longest
from operator import attrgetter, index
from typing import Iterator, Sequence

ExponentVector = tuple[int, ...]


class Frozen:
    """Base of the package's immutable values, each a class whose __slots__
    name its fields and whose __init__ passes their values, in that order,
    to Frozen.__init__.

    A value equals another of the same class with an equal field tuple, hashes
    as that tuple, and prints as Name(field=value, ...): the rules of a frozen
    dataclass, without importing dataclasses. pickle, copy.copy and
    copy.deepcopy refuse a value with a TypeError that names its class.
    """

    __slots__ = ()

    def __init_subclass__(cls) -> None:
        # The field tuple through one attrgetter, which returns a bare value,
        # not a 1-tuple, when it reads a single field.
        get = attrgetter(*cls.__slots__)
        if len(cls.__slots__) == 1:
            cls._values = lambda self: (get(self),)
        else:
            cls._values = lambda self: get(self)

    def __init__(self, *values) -> None:
        for name, value in zip(self.__slots__, values, strict=True):
            object.__setattr__(self, name, value)

    def __eq__(self, other) -> bool:
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce_ex__(self, protocol):
        raise TypeError(f"cannot pickle or copy a {type(self).__qualname__}")


def _integer_part(p) -> int:
    """p as an int if it is an integer (has __index__); a float or a string
    is refused rather than truncated or parsed."""
    try:
        return index(p)
    except TypeError:
        raise ValueError(f"partition parts must be integers: {p!r}") from None


class Partition(Frozen):
    """Weakly decreasing tuple of nonnegative integers, trailing zeros stripped.

    Equality and hashing see only the stripped form, so (3,1,0) == (3,1).
    """

    __slots__ = ("parts",)

    def __init__(self, parts: tuple[int, ...] = ()) -> None:
        cleaned = tuple(map(_integer_part, parts))
        end = len(cleaned)
        while end and cleaned[end - 1] == 0:
            end -= 1
        cleaned = cleaned[:end]
        if any(p < 0 for p in cleaned):
            raise ValueError(f"partition parts must be nonnegative: {parts}")
        if any(cleaned[i] < cleaned[i + 1] for i in range(len(cleaned) - 1)):
            raise ValueError(f"partition parts must be weakly decreasing: {parts}")
        super().__init__(cleaned)

    def __len__(self) -> int:
        return len(self.parts)

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


def majorizes(mu: Sequence[int], v: Sequence[int]) -> bool:
    """True iff the integer vector v is majorized by mu (equal sums, dominated
    prefix sums); for partitions, iff v is below mu in dominance order.

    mu must be weakly decreasing; v, in any order, is compared through its
    decreasing rearrangement, the shorter side padded with zeros. Entries are
    read through operator.index, so anything but an integer (a float, a
    string, a rational number) raises TypeError rather than being compared.
    """
    mu = tuple(map(index, mu))
    v = sorted(map(index, v), reverse=True)
    if v and v[-1] < 0:
        raise ValueError("majorization requires nonnegative entries")
    if sum(v) != sum(mu):
        raise ValueError("majorization undefined across unequal sums")
    acc_v = acc_m = 0
    for x, m in zip_longest(v, mu, fillvalue=0):
        acc_v += x
        acc_m += m
        if acc_v > acc_m:
            return False
    return True


def convex_combination(
    weights: Sequence[int], vectors: Sequence[Sequence[int]]
) -> ExponentVector:
    """The mix of vectors with nonnegative integer weights of positive total
    d, scaled by d: the integer vector sum_k weights[k] * vectors[k], whose
    entries over d are those of the convex combination.

    Nothing in the package calls it: the tests use it as their reference,
    and perfbench/tracing.py wraps it by name.
    """
    coeffs = tuple(map(index, weights))
    if len(coeffs) != len(vectors):
        raise ValueError("one weight per vector required")
    if any(c < 0 for c in coeffs):
        raise ValueError("convex weights must be nonnegative")
    if not any(coeffs):
        raise ValueError("convex weights must have a positive total")
    n = len(vectors[0])
    if any(len(vec) != n for vec in vectors):
        raise ValueError("vectors must share a common length")
    return tuple(
        sum(c * index(x) for c, x in zip(coeffs, column)) for column in zip(*vectors)
    )


def dominated_partitions(weight: Sequence[int]) -> Iterator[tuple[int, ...]]:
    """Every partition that the weakly decreasing `weight` dominates, as its
    parts padded with zeros to len(weight), in decreasing lexicographic order.

    One loop over the rows: each part is at most the one before it and keeps
    its prefix sum at or under the weight's, and it is tried only if it,
    times the rows left, covers what is left to place. The weight's prefix
    sums are concave, so the evenest completion of any such prefix fits
    under them; no branch dead-ends, and the work follows the output.
    """
    rows = len(weight)
    ceiling = list(accumulate(weight))
    total = ceiling[-1] if rows else 0
    parts: list[int] = []
    placed = 0
    part = total  # the part to try in row len(parts), before its caps
    while True:
        left = total - placed
        if left == 0:
            yield tuple(parts) + (0,) * (rows - len(parts))
        else:
            row = len(parts)
            # At most `left` too, since the ceiling ends at the total.
            part = min(part, ceiling[row] - placed)
            if part * (rows - row) >= left:
                parts.append(part)
                placed += part
                continue
        if not parts:
            return
        part = parts.pop()  # then the next smaller part in its row
        placed -= part
        part -= 1


def partitions_of_size(total: int, max_rows: int, max_part: int) -> Iterator[Partition]:
    """All partitions of `total` with at most max_rows rows and no part over
    max_part: those that the greatest of them, rows of max_part and then the
    remainder, dominates."""
    if total > max_rows * max_part:
        return
    greatest = [min(max_part, max(0, total - max_part * r)) for r in range(max_rows)]
    for nu in dominated_partitions(greatest):  # zeros trail: Partition strips none
        yield Partition(nu[: max_rows - nu.count(0)])


def partitions_in_box(max_rows: int, max_part: int) -> Iterator[Partition]:
    """All partitions fitting in a max_rows x max_part box, empty included."""
    for total in range(max_rows * max_part + 1):
        yield from partitions_of_size(total, max_rows=max_rows, max_part=max_part)

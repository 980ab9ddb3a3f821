"""Backtracking enumeration of the three tableau families used downstream:
semistandard Young tableaux, flagged strictly-increasing skew tableaux, and
set-valued semistandard tableaux.

Each family has one backtracking fill. It fills cells in row-major order,
tries labels in increasing order and keeps the content of the partial filling
in a per-label count list, so the order of fillings is deterministic. The
polynomial models use the counting functions (ssyt_contents,
count_lenart_tableaux, set_valued_contents), which tally contents at the
leaves without building a Tableau. The enumerate_* generators are views over
the same fills that yield each filling as a Tableau.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterator, Sequence

from .partitions import ExponentVector, Partition


@dataclass(frozen=True)
class Tableau:
    """A filling of the skew diagram outer/inner by nonempty label sets.

    entries[r] lists the cells of row r (0-based) left to right, covering
    absolute columns inner.part(r+1) .. outer.part(r+1)-1; each cell is a
    sorted tuple of positive integers (singletons for ordinary tableaux).
    """

    outer: Partition
    inner: Partition
    entries: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self) -> None:
        if not self.outer.contains(self.inner):
            raise ValueError("inner shape must fit inside outer shape")
        if len(self.entries) != len(self.outer):
            raise ValueError("one entry row per outer row required")
        for r, row in enumerate(self.entries):
            expected = self.outer.part(r + 1) - self.inner.part(r + 1)
            if len(row) != expected:
                raise ValueError(f"row {r + 1} must have {expected} cells")
            for labels in row:
                if not labels or any(x < 1 for x in labels):
                    raise ValueError("cells must hold nonempty sets of positive ints")
                if any(labels[i] >= labels[i + 1] for i in range(len(labels) - 1)):
                    raise ValueError("cell labels must be strictly increasing tuples")

    def cell(self, r: int, c: int) -> tuple[int, ...]:
        """Labels at 0-based row r, absolute 0-based column c."""
        offset = c - self.inner.part(r + 1)
        return self.entries[r][offset]

    def has_cell(self, r: int, c: int) -> bool:
        return 0 <= r < len(self.outer) and self.inner.part(r + 1) <= c < self.outer.part(r + 1)

    def cells(self) -> Iterator[tuple[int, int, tuple[int, ...]]]:
        """Yield (row, column, labels) in row-major order, 0-based coordinates."""
        for r, row in enumerate(self.entries):
            start = self.inner.part(r + 1)
            for offset, labels in enumerate(row):
                yield r, start + offset, labels

    def label_count(self) -> int:
        """Total number of labels over all cells (counting set sizes)."""
        return sum(len(labels) for _, _, labels in self.cells())

    def is_empty(self) -> bool:
        return all(not row for row in self.entries)


def content(t: Tableau, n: int) -> ExponentVector:
    """Multiplicity vector of labels 1..n over all cells of t."""
    counts = [0] * n
    for _, _, labels in t.cells():
        for x in labels:
            if x > n:
                raise ValueError(f"label {x} exceeds ambient {n}")
            counts[x - 1] += 1
    return tuple(counts)


def _entries(row_lengths: Sequence[int], cells: Sequence[tuple[int, ...]]) -> tuple:
    """Split row-major cell labels into the rows of a Tableau."""
    rows = []
    start = 0
    for length in row_lengths:
        rows.append(tuple(cells[start : start + length]))
        start += length
    return tuple(rows)


# -- semistandard Young tableaux ---------------------------------------------


def _fill_ssyt(lam: Partition, n: int, leaf: Callable[[list[int], list[int]], None]) -> None:
    """Backtrack over the SSYT of shape lam with entries in 1..n.

    Cells are filled in row-major order, labels tried in increasing order.
    Rows weakly increase, columns strictly increase, so a cell with b cells
    below it holds at most n - b; every partial filling within these bounds
    completes. At each complete filling leaf(values, counts) is called with
    the row-major labels and the content (counts[i] is the multiplicity of
    label i+1); both lists are live.
    """
    shape = lam.parts
    left: list[int] = []
    up: list[int] = []
    cap: list[int] = []
    for r, length in enumerate(shape):
        for c in range(length):
            left.append(len(left) - 1 if c > 0 else -1)
            up.append(len(up) - shape[r - 1] if r > 0 else -1)
            cap.append(n - sum(1 for below in shape[r + 1 :] if below > c))
    size = len(cap)
    values = [0] * size
    counts = [0] * n

    def fill(idx: int) -> None:
        if idx == size:
            leaf(values, counts)
            return
        lo = 1
        j = left[idx]
        if j >= 0:
            lo = values[j]
        j = up[idx]
        if j >= 0 and values[j] >= lo:
            lo = values[j] + 1
        for v in range(lo, cap[idx] + 1):
            values[idx] = v
            counts[v - 1] += 1
            fill(idx + 1)
            counts[v - 1] -= 1

    fill(0)


def ssyt_contents(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """Number of SSYT of shape lam with entries in 1..n, per content vector."""
    acc: dict[ExponentVector, int] = {}

    def leaf(values: list[int], counts: list[int]) -> None:
        key = tuple(counts)
        acc[key] = acc.get(key, 0) + 1

    _fill_ssyt(lam, n, leaf)
    return acc


def enumerate_ssyt(lam: Partition, n: int) -> Iterator[Tableau]:
    """All semistandard Young tableaux of shape lam with entries in 1..n.

    Rows weakly increase, columns strictly increase. Shapes with more rows
    than n admit no filling and yield nothing.
    """
    fills: list[tuple[int, ...]] = []
    _fill_ssyt(lam, n, lambda values, counts: fills.append(tuple(values)))
    for values in fills:
        entries = _entries(lam.parts, [(v,) for v in values])
        yield Tableau(outer=lam, inner=Partition(), entries=entries)


# -- flagged strictly increasing skew tableaux -------------------------------


def _fill_lenart(
    lam: Partition, mu: Partition, n: int, leaf: Callable[[list[int]], None]
) -> None:
    """Backtrack over the fillings of mu/lam that are strictly increasing along
    rows and down columns, with every entry of row r at most r-1 (and in 1..n).

    Cells are filled in row-major order, labels tried in increasing order; at
    each complete filling leaf(values) gets the live row-major labels.
    """
    if not mu.contains(lam):
        raise ValueError("not a skew shape")
    left: list[int] = []
    up: list[int] = []
    cap: list[int] = []
    index: dict[tuple[int, int], int] = {}
    for r in range(len(mu)):
        for c in range(lam.part(r + 1), mu.part(r + 1)):
            left.append(index.get((r, c - 1), -1))
            up.append(index.get((r - 1, c), -1))
            cap.append(min(n, r))  # 1-based row r+1 caps entries at (r+1)-1 = r
            index[(r, c)] = len(cap) - 1
    size = len(cap)
    values = [0] * size

    def fill(idx: int) -> None:
        if idx == size:
            leaf(values)
            return
        lo = 1
        j = left[idx]
        if j >= 0:
            lo = values[j] + 1
        j = up[idx]
        if j >= 0 and values[j] >= lo:
            lo = values[j] + 1
        for v in range(lo, cap[idx] + 1):
            values[idx] = v
            fill(idx + 1)

    fill(0)


def count_lenart_tableaux(lam: Partition, mu: Partition, n: int) -> int:
    """Number of fillings that enumerate_lenart_tableaux(lam, mu, n) yields."""
    found = [0]

    def leaf(values: list[int]) -> None:
        found[0] += 1

    _fill_lenart(lam, mu, n, leaf)
    return found[0]


def enumerate_lenart_tableaux(lam: Partition, mu: Partition, n: int) -> Iterator[Tableau]:
    """All fillings of the skew shape mu/lam that are strictly increasing along
    rows and down columns, with every entry of row r at most r-1 (and in 1..n).

    The row-r cap makes row 1 unfillable, so any mu with mu_1 > lam_1 yields
    nothing at all.
    """
    fills: list[tuple[int, ...]] = []
    _fill_lenart(lam, mu, n, lambda values: fills.append(tuple(values)))
    lengths = [mu.part(r + 1) - lam.part(r + 1) for r in range(len(mu))]
    for values in fills:
        entries = _entries(lengths, [(v,) for v in values])
        yield Tableau(outer=mu, inner=lam, entries=entries)


# -- set-valued semistandard tableaux ----------------------------------------


def _fill_set_valued(
    lam: Partition, n: int, leaf: Callable[[list[list[int]], list[int], int], None]
) -> None:
    """Backtrack over the set-valued semistandard fillings of lam in 1..n.

    Rows weakly increase and columns strictly increase on set extremes:
    max(cell) <= min(right neighbour) and max(cell) < min(cell below), so
    a cell with b cells below it holds labels of at most n - b; every partial
    filling within these bounds completes. Cells are filled in row-major
    order; each cell's label sets come in lexicographic order, a set before
    its extensions. At each complete filling leaf(cells, counts, sign) gets
    the live row-major label lists, the content and
    (-1)^(labels placed - |lam|).
    """
    shape = lam.parts
    left: list[int] = []
    up: list[int] = []
    cap: list[int] = []
    for r, length in enumerate(shape):
        for c in range(length):
            left.append(len(left) - 1 if c > 0 else -1)
            up.append(len(up) - shape[r - 1] if r > 0 else -1)
            cap.append(n - sum(1 for below in shape[r + 1 :] if below > c))
    size = len(cap)
    cells: list[list[int]] = [[] for _ in range(size)]
    counts = [0] * n

    def fill(idx: int, sign: int) -> None:
        if idx == size:
            leaf(cells, counts, sign)
            return
        lo = 1
        j = left[idx]
        if j >= 0:
            lo = cells[j][-1]
        j = up[idx]
        if j >= 0 and cells[j][-1] >= lo:
            lo = cells[j][-1] + 1
        grow(idx, lo, sign)

    def grow(idx: int, start: int, sign: int) -> None:
        # Add one label v >= start to the cell; the first label of a cell
        # keeps the sign, each further one flips it.
        cell = cells[idx]
        for v in range(start, cap[idx] + 1):
            cell.append(v)
            counts[v - 1] += 1
            fill(idx + 1, sign)
            grow(idx, v + 1, -sign)
            counts[v - 1] -= 1
            cell.pop()

    fill(0, 1)


def set_valued_contents(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """Signed count (-1)^(labels - |lam|) of set-valued fillings of lam in
    1..n, per content vector."""
    acc: dict[ExponentVector, int] = {}

    def leaf(cells: list[list[int]], counts: list[int], sign: int) -> None:
        key = tuple(counts)
        acc[key] = acc.get(key, 0) + sign

    _fill_set_valued(lam, n, leaf)
    return acc


def enumerate_set_valued(lam: Partition, n: int) -> Iterator[Tableau]:
    """All set-valued semistandard fillings of lam with labels in 1..n.

    Rows weakly increase and columns strictly increase on set extremes:
    max(cell) <= min(right neighbour) and max(cell) < min(cell below).
    """
    fills: list[list[tuple[int, ...]]] = []
    _fill_set_valued(
        lam, n, lambda cells, counts, sign: fills.append([tuple(c) for c in cells])
    )
    for cells in fills:
        yield Tableau(outer=lam, inner=Partition(), entries=_entries(lam.parts, cells))


# -- post-hoc validity predicates -------------------------------------------


def is_valid_ssyt(t: Tableau, n: int) -> bool:
    """Straight shape, singleton cells in 1..n, rows weak, columns strict."""
    if len(t.inner) != 0:
        return False
    for r, c, labels in t.cells():
        if len(labels) != 1 or not 1 <= labels[0] <= n:
            return False
        if c > 0 and t.cell(r, c - 1)[0] > labels[0]:
            return False
        if r > 0 and t.has_cell(r - 1, c) and t.cell(r - 1, c)[0] >= labels[0]:
            return False
    return True


def is_valid_lenart(t: Tableau, lam: Partition, mu: Partition, n: int) -> bool:
    """Skew shape mu/lam, strict rows and columns, row r capped at r-1."""
    if t.outer != mu or t.inner != lam:
        return False
    for r, c, labels in t.cells():
        if len(labels) != 1:
            return False
        v = labels[0]
        if not 1 <= v <= min(n, r):  # r is 0-based, so the cap is (r+1)-1 = r
            return False
        if t.has_cell(r, c - 1) and c - 1 >= lam.part(r + 1) and t.cell(r, c - 1)[0] >= v:
            return False
        if r > 0 and t.has_cell(r - 1, c) and t.cell(r - 1, c)[0] >= v:
            return False
    return True


def is_valid_set_valued(t: Tableau, n: int) -> bool:
    """Straight shape, nonempty cells in 1..n, weak rows / strict columns on extremes."""
    if len(t.inner) != 0:
        return False
    for r, c, labels in t.cells():
        if not labels or labels[-1] > n:
            return False
        if c > 0 and t.cell(r, c - 1)[-1] > labels[0]:
            return False
        if r > 0 and t.has_cell(r - 1, c) and t.cell(r - 1, c)[-1] >= labels[0]:
            return False
    return True

"""Backtracking fills of the three tableau families used downstream:
semistandard Young tableaux, flagged strictly-increasing skew tableaux, and
set-valued semistandard tableaux, plus two branching counts that fill no cell.

Each family has one backtracking fill. It fills cells in row-major order,
tries labels in increasing order and keeps the content of the partial filling
in a per-label count list, so the order of fillings is deterministic, and it
places only labels that keep the filling valid, so every leaf is a tableau of
the family. The counting functions (ssyt_contents, count_lenart_tableaux,
set_valued_contents) tally contents at the leaves without building a Tableau;
the Schur expansion counts Lenart fillings, and the full monomial expansions
of both models count SSYT and set-valued fillings.

The verification battery reads the two models at weakly decreasing contents
only, each by its own branching count: ssyt_dominant_contents counts
Gelfand-Tsetlin patterns (the Kostka numbers of the Lenart side), and
set_valued_dominant_contents adds one label at a time (the set-valued side).
Both polynomials are symmetric, so these coefficients fix all others; the
cross-oracle check thus compares dominant coefficients, and a test pins the
symmetry and the restriction against the full fills. The enumerate_*
generators are views over the fills that yield each filling as a Tableau;
nothing in the package calls them, and perfbench/tracing.py wraps them by
name.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Callable, Iterator, Sequence

from .partitions import ExponentVector, Frozen, Partition


class Tableau(Frozen):
    """A filling of the skew diagram outer/inner by nonempty label sets.

    entries[r] lists the cells of row r (0-based) left to right, covering
    absolute columns inner.part(r+1) .. outer.part(r+1)-1; each cell is a
    sorted tuple of positive integers (singletons for ordinary tableaux).
    """

    __slots__ = ("outer", "inner", "entries")

    def __init__(
        self,
        outer: Partition,
        inner: Partition,
        entries: tuple[tuple[tuple[int, ...], ...], ...],
    ) -> None:
        super().__init__(outer, inner, entries)
        if not outer.contains(inner):
            raise ValueError("inner shape must fit inside outer shape")
        if len(entries) != len(outer):
            raise ValueError("one entry row per outer row required")
        for r, row in enumerate(entries):
            expected = outer.part(r + 1) - inner.part(r + 1)
            if len(row) != expected:
                raise ValueError(f"row {r + 1} must have {expected} cells")
            for labels in row:
                if not labels or any(x < 1 for x in labels):
                    raise ValueError("cells must hold nonempty sets of positive ints")
                if any(labels[i] >= labels[i + 1] for i in range(len(labels) - 1)):
                    raise ValueError("cell labels must be strictly increasing tuples")


def _entries(row_lengths: Sequence[int], cells: Sequence[tuple[int, ...]]) -> tuple:
    """Split row-major cell labels into the rows of a Tableau."""
    rows = []
    start = 0
    for length in row_lengths:
        rows.append(tuple(cells[start : start + length]))
        start += length
    return tuple(rows)


# -- semistandard Young tableaux ---------------------------------------------


def _straight_layout(shape: Sequence[int], n: int) -> tuple[list[int], ...]:
    """The row-major cells of a straight shape in 1..n as three lists: left[i]
    and up[i] index the cell left of and above cell i (-1 if none), and
    cap[i] = n - (cells below cell i) is the largest label it can hold."""
    left: list[int] = []
    up: list[int] = []
    cap: list[int] = []
    for r, length in enumerate(shape):
        for c in range(length):
            left.append(len(left) - 1 if c > 0 else -1)
            up.append(len(up) - shape[r - 1] if r > 0 else -1)
            cap.append(n - sum(1 for below in shape[r + 1 :] if below > c))
    return left, up, cap


def _fill_ssyt(lam: Partition, n: int, leaf: Callable[[list[int], list[int]], None]) -> None:
    """Backtrack over the SSYT of shape lam with entries in 1..n.

    Cells are filled in row-major order, labels tried in increasing order.
    Rows weakly increase, columns strictly increase, so a cell with b cells
    below it holds at most n - b; every partial filling within these bounds
    completes. At each complete filling leaf(values, counts) is called with
    the row-major labels and the content (counts[i] is the multiplicity of
    label i+1); both lists are live. The backtracking is a loop over the cell
    index, with 0 marking a cell not yet placed, so no shape is too large for
    Python's recursion limit.
    """
    left, up, cap = _straight_layout(lam.parts, n)
    size = len(cap)
    values = [0] * size
    counts = [0] * n
    idx = 0
    while idx >= 0:
        if idx == size:
            leaf(values, counts)
            idx -= 1
            continue
        v = values[idx]
        if v:  # the next label after v
            counts[v - 1] -= 1
            v += 1
        else:  # the least label the cells left of and above allow
            v = 1
            j = left[idx]
            if j >= 0:
                v = values[j]
            j = up[idx]
            if j >= 0 and values[j] >= v:
                v = values[j] + 1
        if v > cap[idx]:
            values[idx] = 0
            idx -= 1
        else:
            values[idx] = v
            counts[v - 1] += 1
            idx += 1


def ssyt_contents(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """Number of SSYT of shape lam with entries in 1..n, per content vector."""
    acc: dict[ExponentVector, int] = {}

    def leaf(values: list[int], counts: list[int]) -> None:
        key = tuple(counts)
        acc[key] = acc.get(key, 0) + 1

    _fill_ssyt(lam, n, leaf)
    return acc


def ssyt_dominant_contents(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """The Kostka numbers K_{lam,nu}: the values of ssyt_contents(lam, n) at
    weakly decreasing contents nu. The dict is cached; do not change it."""
    return _gelfand_tsetlin(lam.padded(n))


_PATTERNS: dict[tuple[int, ...], dict[ExponentVector, int]] = {}


def _gelfand_tsetlin(row: tuple[int, ...]) -> dict[ExponentVector, int]:
    """Gelfand-Tsetlin patterns with top row `row`, per weakly decreasing
    content: each lower row interlaces the one above it, and row k of the
    pattern is the shape filled by the labels 1..k, so label k occurs
    sum(row k) - sum(row k-1) times.

    One memo on rows is shared by every shape, since the rows below one top
    row are the shapes inside it. The rows not yet in it are found level by
    level down from `row` and filled in shortest first, so each row's count
    reads only memoized rows and nothing recurses.
    """
    _PATTERNS.setdefault((), {(): 1})  # here, so that cache_clear may empty it
    levels = []
    new = set() if row in _PATTERNS else {row}
    while new:
        # Each top with the rows one shorter that interlace it, in product order.
        level = [
            (top, list(product(*(range(b, a + 1) for a, b in zip(top, top[1:])))))
            for top in new
        ]
        levels.append(level)
        new = {b for _, belows in level for b in belows if b not in _PATTERNS}
    for level in reversed(levels):
        for top, belows in level:
            total = sum(top)
            acc: dict[ExponentVector, int] = {}
            for below in belows:
                last = total - sum(below)
                for prefix, count in _PATTERNS[below].items():
                    if prefix and prefix[-1] < last:
                        continue
                    key = prefix + (last,)
                    acc[key] = acc.get(key, 0) + count
            _PATTERNS[top] = acc
    return _PATTERNS[row]


# Cleared like the lru_cache kernels, as perfbench does between operations.
_gelfand_tsetlin.cache_clear = _PATTERNS.clear


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
    each complete filling leaf(values) gets the live row-major labels. As in
    _fill_ssyt, the backtracking is a loop over the cell index, with 0 marking
    a cell not yet placed, so no shape is too large for Python's recursion
    limit.
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
    idx = 0
    while idx >= 0:
        if idx == size:
            leaf(values)
            idx -= 1
            continue
        v = values[idx]
        if v:  # the next label after v
            v += 1
        else:  # the least label the cells left of and above allow
            v = 1
            j = left[idx]
            if j >= 0:
                v = values[j] + 1
            j = up[idx]
            if j >= 0 and values[j] >= v:
                v = values[j] + 1
        if v > cap[idx]:
            values[idx] = 0
            idx -= 1
        else:
            values[idx] = v
            idx += 1


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
    left, up, cap = _straight_layout(lam.parts, n)
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


def set_valued_dominant_contents(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """The values of set_valued_contents(lam, n) at weakly decreasing contents,
    by label-by-label branching (Buch 2002), without filling a single cell.

    Label i enters a filling of shape mu in 1..i-1 as the only label of the
    cells of a horizontal strip grown/mu, and as an extra label in any j of
    the e cells that end a row of mu with no cell of grown below them. So
    each (mu, content prefix) passes (-1)^j C(e, j) times its count to
    (grown, prefix + (|grown/mu| + j,)). Only prefixes that weakly decrease
    are kept, and only shapes inside lam that the labels still to come can
    complete to lam; after label n, the prefixes at shape lam are the
    dominant contents.
    """
    target = lam.parts
    rows = len(target)
    layer: dict[tuple[int, ...], dict[ExponentVector, int]] = {(0,) * rows: {(): 1}}
    for left in reversed(range(n)):
        grown_layer: dict[tuple[int, ...], dict[ExponentVector, int]] = {}
        for mu, prefixes in layer.items():
            size = sum(mu)
            bounds = [
                range(mu[r], min(target[r], mu[r - 1] if r else target[0]) + 1)
                for r in range(rows)
            ]
            for grown in product(*bounds):
                # Each label still to come adds at most one cell per column.
                if any(target[r + left] > grown[r] for r in range(rows - left)):
                    continue
                added = sum(grown) - size
                ends = sum(
                    1 for r in range(rows)
                    if mu[r] and (r + 1 == rows or grown[r + 1] < mu[r])
                )
                signs = [(-1) ** j * comb(ends, j) for j in range(ends + 1)]
                acc = grown_layer.setdefault(grown, {})
                for prefix, count in prefixes.items():
                    cap = prefix[-1] if prefix else lam.part(1)
                    for j in range(min(ends, cap - added) + 1):
                        key = prefix + (added + j,)
                        acc[key] = acc.get(key, 0) + signs[j] * count
        layer = {}
        for grown, acc in grown_layer.items():
            kept = {prefix: count for prefix, count in acc.items() if count}
            if kept:
                layer[grown] = kept
    return layer.get(target, {})


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


"""Backtracking fills of the three tableau families used downstream:
semistandard Young tableaux, flagged strictly-increasing skew tableaux, and
set-valued semistandard tableaux, plus three branching counts that fill no cell.

Each family has one backtracking fill. It fills cells in row-major order,
tries labels in increasing order and keeps the content of the partial filling
in a per-label count list, so the order of fillings is deterministic, and it
places only labels that keep the filling valid, so every leaf is a tableau of
the family. The counting functions (ssyt_contents, set_valued_contents) tally
contents at the leaves without building a Tableau; the full monomial
expansions of both models count SSYT and set-valued fillings. The Schur
expansion counts the flagged skew tableaux of every outer shape at once by
lenart_shape_counts, which adds one label at a time as a rook strip.

The verification battery reads the two models at weakly decreasing contents
only, each by its own branching count that keeps two levels alive:
gelfand_tsetlin_contents walks the Gelfand-Tsetlin patterns of every shape
of a Schur expansion at once, from the top row down (the Lenart side's
sum of coefficients times Kostka numbers), and set_valued_dominant_contents
adds one label at a time (the set-valued side). Both polynomials are
symmetric, so these coefficients fix all others; the cross-oracle check thus
compares dominant coefficients, and a test pins the symmetry and the
restriction against the full fills. The enumerate_* generators are views
over the fills that yield each filling as a Tableau; nothing in the package
calls them, and perfbench/tracing.py wraps them by name.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Callable, Iterator, Mapping, Sequence

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


def gelfand_tsetlin_contents(
    tops: Mapping[tuple[int, ...], int],
) -> dict[ExponentVector, int]:
    """sum_mu c_mu K_{mu,nu} at each weakly decreasing content nu, for the
    weighted top rows {mu.padded(n): c_mu}, all of one length n.

    K_{mu,nu} counts the Gelfand-Tsetlin patterns with top row mu and content
    nu: each lower row is one shorter than the row above and interlaces it,
    and row k is the shape that the labels 1..k fill, so label k occurs
    sum(row k) - sum(row k-1) times. The patterns of all the tops are walked
    together from the top down. Level k maps each row of length k to the
    signed count of each content suffix (c_k+1, ..., c_n) it is reached with.
    Each row passes its suffixes to the rows that interlace below it, with
    last = c_k prepended, and drops a suffix that would not weakly decrease;
    a row below whose labels 1..k-1 cannot each occur at least last times is
    skipped, and zero counts are dropped level by level. The rows one level
    needs are those that interlace the level above, so only two levels are
    alive at a time.
    """
    level = {top: {(): coeff} for top, coeff in tops.items() if coeff}
    while level and () not in level:
        lower: dict[tuple[int, ...], dict[ExponentVector, int]] = {}
        for row, suffixes in level.items():
            total = sum(row)
            for below in product(*map(range, row[1:], [part + 1 for part in row])):
                size = sum(below)
                last = total - size
                if size < len(below) * last:
                    continue
                acc = lower.setdefault(below, {})
                for suffix, count in suffixes.items():
                    if suffix and suffix[0] > last:
                        continue
                    key = (last,) + suffix
                    acc[key] = acc.get(key, 0) + count
        level = {}
        for row, acc in lower.items():
            kept = {suffix: count for suffix, count in acc.items() if count}
            if kept:
                level[row] = kept
    return level.get((), {})


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


def lenart_shape_counts(lam: Partition, n: int) -> dict[tuple[int, ...], int]:
    """Number of fillings that enumerate_lenart_tableaux(lam, mu, n) yields, at
    each outer shape mu with at most n rows that has one, keyed by mu.padded(n),
    by label-by-label branching (Lenart 2000), without filling a single cell.

    The cells of such a filling labelled at most t form a shape. Label t puts
    at most one cell in each row and column, all in rows t+1..n, so the cells
    it adds are a rook strip: any set of addable corners of the shape below
    label t in those rows, where row r has one iff row r-1 is strictly longer.
    So for t = 1..n-1 each shape passes its count to itself grown by each
    such set. A shape with no addable corner in rows t+1..n never grows
    again, and it leaves the layer for the result.
    """
    counts: dict[tuple[int, ...], int] = {}
    layer = {lam.padded(n): 1}
    for t in range(1, n):
        grown_layer: dict[tuple[int, ...], int] = {}
        for shape, count in layer.items():
            # Rows below the first empty row have no addable corner.
            rows = shape.index(0) + 1 if 0 in shape else n
            tail = shape[t:rows]
            ends = [min(part + 1, above) for above, part in zip(shape[t - 1 :], tail)]
            if ends == list(tail):
                counts[shape] = counts.get(shape, 0) + count
                continue
            for strip in product(*map(range, tail, [end + 1 for end in ends])):
                grown = shape[:t] + strip + shape[rows:]
                grown_layer[grown] = grown_layer.get(grown, 0) + count
        layer = grown_layer
    for shape, count in layer.items():
        counts[shape] = counts.get(shape, 0) + count
    return counts


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


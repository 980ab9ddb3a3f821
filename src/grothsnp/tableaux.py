"""Backtracking fills of the three tableau families used downstream:
semistandard Young tableaux, flagged strictly-increasing skew tableaux, and
set-valued semistandard tableaux.

One fill serves the semistandard and the flagged skew tableaux, which differ
only in row strictness and in each cell's cap; another serves the set-valued
tableaux; neither recurses. Each is a generator that fills cells in row-major
order, tries labels (or label sets) in increasing order and keeps the content
of the partial filling in a per-label count list, so the order of fillings is
deterministic, and places only labels that keep the filling valid, so every
complete filling is a tableau of the family. It yields each complete filling
as live lists, which the caller reads before it resumes the fill. The counting
functions (ssyt_contents, set_valued_contents) tally contents over the fill;
the full monomial expansions of both models count SSYT and set-valued
fillings, and in the package only they import this module. The enumerate_*
views copy each filling as the fill reaches it into a Filling, the label
tuples of its cells in row-major order, so they stream: the first filling
comes without the rest of the fill, and a view holds only the one in hand.
Nothing in the package calls them; perfbench/tracing.py wraps them by name.
"""

from __future__ import annotations

from typing import Iterator

from .partitions import ExponentVector, Partition

Filling = tuple[tuple[int, ...], ...]


# -- one fill for semistandard and flagged skew tableaux ---------------------


def _layout(
    outer: Partition, inner: Partition, n: int, flagged: bool
) -> tuple[list[int], ...]:
    """The row-major cells of the skew shape outer/inner in 1..n as three
    lists: left[i] and up[i] index the cell left of and above cell i (-1 if
    none), and cap[i] = n - (cells below cell i) is the largest label it can
    hold. With flagged, cap[i] is also at most r - 1 in 1-based row r. That
    allows the same fillings as the flag min(n, r - 1) alone: the column
    strictly increases and its lowest cell, b rows further down, holds at
    most min(n, r + b - 1)."""
    if not outer.contains(inner):
        raise ValueError("not a skew shape")
    parts = outer.parts
    heights = [sum(1 for part in parts if part > c) for c in range(outer.part(1))]
    left: list[int] = []
    up: list[int] = []
    cap: list[int] = []
    for r, length in enumerate(parts):
        start = inner.part(r + 1)
        for c in range(start, length):
            left.append(len(left) - 1 if c > start else -1)
            up.append(len(up) - parts[r - 1] + start if r and c >= inner.part(r) else -1)
            bound = n - (heights[c] - r - 1)
            cap.append(min(r, bound) if flagged else bound)
    return left, up, cap


def _fill(
    outer: Partition, inner: Partition, n: int, flagged: bool
) -> Iterator[tuple[list[int], list[int]]]:
    """Backtrack over the fillings of the skew shape outer/inner with entries
    in 1..n whose columns strictly increase and whose rows weakly increase
    (semistandard) or, with flagged, strictly increase with every entry of
    1-based row r at most r - 1 (Lenart's flagged tableaux).

    Cells are filled in row-major order, labels tried in increasing order up
    to the cell's cap from _layout. At each complete filling it yields
    (values, counts), the row-major labels and the content (counts[i] is the
    multiplicity of label i+1); both lists are live, so the caller reads them
    before it resumes the fill. The backtracking
    is a loop over the cell index, with 0 marking a cell not yet placed, so
    no shape is too large for Python's recursion limit.
    """
    left, up, cap = _layout(outer, inner, n, flagged)
    step = 1 if flagged else 0
    size = len(cap)
    values = [0] * size
    counts = [0] * n
    idx = 0
    while idx >= 0:
        if idx == size:
            yield values, counts
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
                v = values[j] + step
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


# -- semistandard Young tableaux ---------------------------------------------


def ssyt_contents(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """Number of SSYT of shape lam with entries in 1..n, per content vector."""
    acc: dict[ExponentVector, int] = {}
    for _, counts in _fill(lam, Partition(), n, False):
        key = tuple(counts)
        acc[key] = acc.get(key, 0) + 1
    return acc


def enumerate_ssyt(lam: Partition, n: int) -> Iterator[Filling]:
    """All semistandard Young tableaux of shape lam with entries in 1..n.

    Rows weakly increase, columns strictly increase. Shapes with more rows
    than n admit no filling and yield nothing.
    """
    for values, _ in _fill(lam, Partition(), n, False):
        yield tuple((v,) for v in values)


# -- flagged strictly increasing skew tableaux -------------------------------


def enumerate_lenart_tableaux(lam: Partition, mu: Partition, n: int) -> Iterator[Filling]:
    """All fillings of the skew shape mu/lam that are strictly increasing along
    rows and down columns, with every entry of row r at most r-1 (and in 1..n).

    The row-r cap makes row 1 unfillable, so any mu with mu_1 > lam_1 yields
    nothing at all.
    """
    for values, _ in _fill(mu, lam, n, True):
        yield tuple((v,) for v in values)


# -- set-valued semistandard tableaux ----------------------------------------


def _fill_set_valued(
    lam: Partition, n: int
) -> Iterator[tuple[list[list[int]], list[int], int]]:
    """Backtrack over the set-valued semistandard fillings of lam in 1..n.

    Rows weakly increase and columns strictly increase on set extremes:
    max(cell) <= min(right neighbour) and max(cell) < min(cell below), so
    a cell with b cells below it holds labels of at most n - b, the cap from
    _layout; every partial filling within these bounds completes. Cells are
    filled in row-major order; each cell's label sets come in lexicographic
    order, a set before its extensions. At each complete filling it yields
    (cells, counts, sign): the live row-major label lists, the live content
    and (-1)^(labels placed - |lam|). As in _fill, the backtracking
    is a loop over the cell index, and an empty cell is not yet placed. A
    cell's next set takes last + 1 within its cap, or else drops the last
    label and increments the new last one; a cell left empty backtracks.
    """
    left, up, cap = _layout(lam, Partition(), n, False)
    size = len(cap)
    cells: list[list[int]] = [[] for _ in range(size)]
    counts = [0] * n
    sign = 1
    idx = 0
    while idx >= 0:
        if idx == size:
            yield cells, counts, sign
            idx -= 1
            continue
        cell = cells[idx]
        if not cell:  # the least label the cells left of and above allow
            v = 1
            j = left[idx]
            if j >= 0:
                v = cells[j][-1]
            j = up[idx]
            if j >= 0 and cells[j][-1] >= v:
                v = cells[j][-1] + 1
            if v > cap[idx]:
                idx -= 1
                continue
            cell.append(v)
            counts[v - 1] += 1
        elif cell[-1] < cap[idx]:  # extend by last + 1
            cell.append(cell[-1] + 1)
            counts[cell[-1] - 1] += 1
            sign = -sign
        else:  # drop the last label, then increment the new last one
            counts[cell.pop() - 1] -= 1
            if not cell:
                idx -= 1
                continue
            counts[cell[-1] - 1] -= 1
            cell[-1] += 1
            counts[cell[-1] - 1] += 1
            sign = -sign
        idx += 1


def set_valued_contents(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """Signed count (-1)^(labels - |lam|) of set-valued fillings of lam in
    1..n, per content vector."""
    acc: dict[ExponentVector, int] = {}
    for _, counts, sign in _fill_set_valued(lam, n):
        key = tuple(counts)
        acc[key] = acc.get(key, 0) + sign
    return acc


def enumerate_set_valued(lam: Partition, n: int) -> Iterator[Filling]:
    """All set-valued semistandard fillings of lam with labels in 1..n.

    Rows weakly increase and columns strictly increase on set extremes:
    max(cell) <= min(right neighbour) and max(cell) < min(cell below).
    """
    for cells, _, _ in _fill_set_valued(lam, n):
        yield tuple(map(tuple, cells))


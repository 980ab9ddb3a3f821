"""Branching counts that fill no cell, each adding one label at a time with
two levels alive: lenart_shape_counts, the Schur expansion's counts of
flagged skew tableaux at every outer shape (a rook strip per label), and both
models' terms at weakly decreasing contents, which fix all others since both
polynomials are symmetric. gelfand_tsetlin_contents walks the Gelfand-Tsetlin
patterns of every shape of a Schur expansion from the top row down (the
Lenart side); set_valued_dominant_contents makes only the states the later
labels can complete (the set-valued side). These two share no helper, so the
cross-oracle check compares independent computations.
"""

from __future__ import annotations

from itertools import product
from math import comb
from typing import Mapping

from .partitions import ExponentVector, Partition


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


def set_valued_dominant_contents(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """The values of set_valued_contents(lam, n) at weakly decreasing contents,
    by label-by-label branching (Buch 2002), without filling a single cell.

    Label i enters a filling of shape mu in 1..i-1 as the only label of the
    cells of a horizontal strip grown/mu, and as an extra label in any j of
    the e cells that end a row of mu with no cell of grown below them. So
    each (mu, content prefix) passes (-1)^j C(e, j) times its count to
    (grown, prefix + (|grown/mu| + j,)). Each prefix opens with lam_1 and
    weakly decreases, and only states that the `left` labels after i can
    complete are made. Each of them adds at most one cell per column, so row
    r of grown holds at least lam_{r+left} cells, and grown is lam after
    label n. Each fills at most as many new cells as its entry, which is at
    most |grown/mu| + j, so the rest = |lam| - |grown| cells still to place
    need j >= ceil(rest / left) - |grown/mu|. After label n, the prefixes at
    lam without their lam_1 are the dominant contents.
    """
    target = lam.parts
    rows = len(target)
    cells = sum(target)
    layer: dict[tuple[int, ...], dict[ExponentVector, int]] = {
        (0,) * rows: {(lam.part(1),): 1}
    }
    for left in reversed(range(n)):
        grown_layer: dict[tuple[int, ...], dict[ExponentVector, int]] = {}
        for mu, prefixes in layer.items():
            size = sum(mu)
            bounds = [
                range(max(mu[r], lam.part(r + left + 1)), min(target[r], above) + 1)
                for r, above in enumerate(target[:1] + mu[:-1])
            ]
            for grown in product(*bounds):
                added = sum(grown) - size
                rest = cells - size - added
                least = max(0, -(-rest // left) - added) if left else 0
                ends = sum(
                    1 for r in range(rows)
                    if mu[r] and (r + 1 == rows or grown[r + 1] < mu[r])
                )
                signs = [(-1) ** j * comb(ends, j) for j in range(ends + 1)]
                acc = grown_layer.setdefault(grown, {})
                for prefix, count in prefixes.items():
                    for j in range(least, min(ends, prefix[-1] - added) + 1):
                        key = prefix + (added + j,)
                        acc[key] = acc.get(key, 0) + signs[j] * count
        layer = {}
        for grown, acc in grown_layer.items():
            kept = {prefix: count for prefix, count in acc.items() if count}
            if kept:
                layer[grown] = kept
    return {prefix[1:]: count for prefix, count in layer.get(target, {}).items()}

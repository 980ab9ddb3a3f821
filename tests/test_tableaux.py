"""Tableau enumeration engines against independent counting oracles."""

import gc
import tracemalloc
from functools import lru_cache
from itertools import combinations, product
from math import comb

import pytest

from grothsnp import (
    Partition,
    grothendieck_setvalued,
    partitions_in_box,
    schur_expansion,
    schur_polynomial,
)
from grothsnp.grothendieck import gelfand_tsetlin_contents, set_valued_dominant_contents
from grothsnp.partitions import ExponentVector
from grothsnp.tableaux import (
    _fill_set_valued,
    _layout,
    enumerate_lenart_tableaux,
    enumerate_set_valued,
    enumerate_ssyt,
    ssyt_contents,
)


def ssyt_count_oracle(parts: tuple[int, ...], n: int, _memo={}) -> int:
    """Count SSYT by peeling the letter n off as a horizontal strip.

    Removing all cells labelled n from an SSYT with entries in [n] leaves an
    SSYT with entries in [n-1] whose shape interlaces the original; summing
    over interlacing subshapes counts everything. Independent of the
    backtracking enumerator under test.
    """
    parts = tuple(p for p in parts if p)
    key = (parts, n)
    if key in _memo:
        return _memo[key]
    if not parts:
        result = 1
    elif n == 0 or len(parts) > n:
        result = 0
    else:
        result = sum(ssyt_count_oracle(inner, n - 1) for inner in _strip_removals(parts))
    _memo[key] = result
    return result


def _strip_removals(parts: tuple[int, ...]):
    """Shapes inner interlacing parts, i.e. parts/inner is a horizontal strip."""
    padded = parts + (0,)
    return product(*(range(padded[i + 1], padded[i] + 1) for i in range(len(parts))))


def kostka_oracle(parts: tuple[int, ...], alpha: tuple[int, ...]) -> int:
    """Number of SSYT of shape parts and content alpha, peeling the largest
    label len(alpha) off as a horizontal strip of size alpha[-1]."""
    parts = tuple(p for p in parts if p)
    if not alpha:
        return 1 if not parts else 0
    return sum(
        kostka_oracle(inner, alpha[:-1])
        for inner in _strip_removals(parts)
        if sum(parts) - sum(inner) == alpha[-1]
    )


def split_rows(filling, row_lengths) -> tuple:
    """The cells of a row-major filling split into rows of the given lengths."""
    rows, start = [], 0
    for length in row_lengths:
        rows.append(tuple(filling[start : start + length]))
        start += length
    return tuple(rows)


def brute_force_fillings(size, labels, valid):
    """Every assignment of one entry of labels to each of size cells, kept if
    valid; row-major as flat tuples of cells."""
    return [cells for cells in product(labels, repeat=size) if valid(cells)]


# Post-hoc validity predicates: the definitions of the three families,
# checked cell by cell on a finished filling of outer/inner. They are the
# references the brute-force order tests filter all label assignments with.


def cells(outer: Partition, inner: Partition, filling):
    """(row, column, labels) in row-major order, 0-based absolute coordinates;
    the filling holds one entry per cell of outer/inner."""
    spots = [
        (r, c) for r in range(len(outer)) for c in range(inner.part(r + 1), outer.part(r + 1))
    ]
    assert len(filling) == len(spots)
    yield from ((r, c, labels) for (r, c), labels in zip(spots, filling))


def labels_at(outer: Partition, inner: Partition, filling, r: int, c: int):
    """The labels at row r, absolute column c, or None outside the skew shape."""
    if 0 <= r < len(outer) and inner.part(r + 1) <= c < outer.part(r + 1):
        start = sum(outer.part(s + 1) - inner.part(s + 1) for s in range(r))
        return filling[start + c - inner.part(r + 1)]
    return None


def is_valid_ssyt(outer: Partition, inner: Partition, filling, n: int) -> bool:
    """Straight shape, singleton cells in 1..n, rows weak, columns strict."""
    if len(inner) != 0:
        return False
    for r, c, labels in cells(outer, inner, filling):
        if len(labels) != 1 or not 1 <= labels[0] <= n:
            return False
        left = labels_at(outer, inner, filling, r, c - 1)
        above = labels_at(outer, inner, filling, r - 1, c)
        if left is not None and left[0] > labels[0]:
            return False
        if above is not None and above[0] >= labels[0]:
            return False
    return True


def is_valid_lenart(outer: Partition, inner: Partition, filling, n: int) -> bool:
    """Strict rows and columns on the skew shape outer/inner, row r capped at r-1."""
    for r, c, labels in cells(outer, inner, filling):
        if len(labels) != 1:
            return False
        v = labels[0]
        if not 1 <= v <= min(n, r):  # r is 0-based, so the cap is (r+1)-1 = r
            return False
        left = labels_at(outer, inner, filling, r, c - 1)
        above = labels_at(outer, inner, filling, r - 1, c)
        if left is not None and left[0] >= v:
            return False
        if above is not None and above[0] >= v:
            return False
    return True


def is_valid_set_valued(outer: Partition, inner: Partition, filling, n: int) -> bool:
    """Straight shape, nonempty strictly increasing cells in 1..n, weak rows /
    strict columns on extremes."""
    if len(inner) != 0:
        return False
    for r, c, labels in cells(outer, inner, filling):
        if not labels or labels[0] < 1 or labels[-1] > n:
            return False
        if any(a >= b for a, b in zip(labels, labels[1:])):
            return False
        left = labels_at(outer, inner, filling, r, c - 1)
        above = labels_at(outer, inner, filling, r - 1, c)
        if left is not None and left[-1] > labels[0]:
            return False
        if above is not None and above[-1] >= labels[0]:
            return False
    return True


def label_count(filling) -> int:
    return sum(len(labels) for labels in filling)


def nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    return [s for k in range(1, n + 1) for s in combinations(range(1, n + 1), k)]


class TestSsyt:
    def test_single_box(self):
        fills = list(enumerate_ssyt(Partition((1,)), 2))
        assert len(fills) == 2
        assert {split_rows(t, [1]) for t in fills} == {(((1,),),), (((2,),),)}

    def test_hook_shape_and_kostka(self):
        fills = list(enumerate_ssyt(Partition((2, 1)), 3))
        assert len(fills) == 8
        standard = [t for t in fills if sorted(t) == [(1,), (2,), (3,)]]
        assert len(standard) == 2

    def test_tall_column_is_infeasible(self):
        assert list(enumerate_ssyt(Partition((1, 1, 1)), 2)) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_match_oracle(self, n):
        for lam in partitions_in_box(3, 4):
            got = sum(1 for _ in enumerate_ssyt(lam, n))
            assert got == ssyt_count_oracle(lam.parts, n), (lam.parts, n)

    def test_yields_only_valid_tableaux(self):
        lam = Partition((2, 2))
        for t in enumerate_ssyt(lam, 3):
            assert is_valid_ssyt(lam, Partition(), t, 3)

    def test_deterministic_order(self):
        first = [split_rows(t, [2, 1]) for t in enumerate_ssyt(Partition((2, 1)), 3)]
        second = [split_rows(t, [2, 1]) for t in enumerate_ssyt(Partition((2, 1)), 3)]
        assert first == second

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_content_coefficients_are_kostka_numbers(self, n):
        for mu in partitions_in_box(3, 3):
            terms = dict(schur_polynomial(mu, n).items())
            for alpha in product(range(mu.size() + 1), repeat=n):
                if sum(alpha) == mu.size():
                    assert terms.get(alpha, 0) == kostka_oracle(mu.parts, alpha), (
                        mu.parts,
                        alpha,
                    )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_major_order_against_brute_force(self, n):
        singletons = [(v,) for v in range(1, n + 1)]
        for lam in partitions_in_box(3, 3):
            if lam.size() > 4:
                continue
            expected = brute_force_fillings(
                lam.size(),
                singletons,
                lambda cells: is_valid_ssyt(lam, Partition(), cells, n),
            )
            assert list(enumerate_ssyt(lam, n)) == sorted(expected)


    @pytest.mark.parametrize(
        "parts, n, contents",
        [
            ((1000,), 1, {(1000,): 1}),
            # Row 2 is all 2s, so row 1 is 1 over it and 1s then 2s after it.
            ((500, 490), 2, {(a, 990 - a): 1 for a in range(490, 501)}),
        ],
        ids=["1000-in-1", "500,490-in-2"],
    )
    def test_shapes_past_the_recursion_limit(self, parts, n, contents):
        lam = Partition(parts)
        assert ssyt_contents(lam, n) == contents
        fills = list(enumerate_ssyt(lam, n))
        assert len(fills) == len(contents)
        # Row-major order with labels increasing: the most 1s first.
        assert [t.count((1,)) for t in fills] == sorted(
            (alpha[0] for alpha in contents), reverse=True
        )


@lru_cache(maxsize=None)
def recursive_gelfand_tsetlin(row):
    """The per-row recursion the top-down walk replaced: the Kostka numbers
    of the shape `row`, per weakly decreasing content, one call per row."""
    if not row:
        return {(): 1}
    total = sum(row)
    acc = {}
    for below in product(*(range(row[i + 1], row[i] + 1) for i in range(len(row) - 1))):
        last = total - sum(below)
        for prefix, count in recursive_gelfand_tsetlin(below).items():
            if prefix and prefix[-1] < last:
                continue
            key = prefix + (last,)
            acc[key] = acc.get(key, 0) + count
    return acc


class TestGelfandTsetlinLoop:
    """gelfand_tsetlin_contents walks the patterns of all its top rows at
    once, from the top down; the per-row recursion and the sum over the Schur
    expansion that it replaced are the references."""

    def test_single_shapes_match_the_recursion(self):
        for lam in partitions_in_box(4, 4):
            for n in range(len(lam), 7):
                row = lam.padded(n)
                expected = recursive_gelfand_tsetlin(row)
                assert gelfand_tsetlin_contents({row: 1}) == expected, row

    def test_schur_expansion_matches_the_sum_of_kostka_numbers(self):
        for lam in partitions_in_box(3, 3):
            for n in range(len(lam), 6):
                terms = schur_expansion(lam, n).terms
                expected = {}
                for mu, coeff in terms:
                    for nu, count in recursive_gelfand_tsetlin(mu.padded(n)).items():
                        expected[nu] = expected.get(nu, 0) + coeff * count
                expected = {nu: c for nu, c in expected.items() if c}
                tops = {mu.padded(n): coeff for mu, coeff in terms}
                assert gelfand_tsetlin_contents(tops) == expected, (lam, n)

    def test_cancelling_tops_leave_no_zero_entry(self):
        # K_{(2),(2,0)} = K_{(2),(1,1)} = K_{(1,1),(1,1)} = 1: (1,1) cancels.
        assert gelfand_tsetlin_contents({(2, 0): 1, (1, 1): -1}) == {(2, 0): 1}

    def test_1200_rows_past_the_recursion_limit(self):
        contents = gelfand_tsetlin_contents({(1,) + (0,) * 1199: 1})
        assert contents == {(1,) + (0,) * 1199: 1}


class TestLenart:
    def test_paper_count_for_the_plus_two_coefficient(self):
        got = list(enumerate_lenart_tableaux(Partition((3, 1)), Partition((3, 2, 1)), 3))
        assert len(got) == 2

    def test_equal_shapes_give_the_empty_filling(self):
        for parts in [(), (1,), (3, 1), (2, 2, 2)]:
            lam = Partition(parts)
            fills = list(enumerate_lenart_tableaux(lam, lam, 4))
            assert len(fills) == 1
            assert fills[0] == ()

    def test_row_one_can_never_grow(self):
        got = list(enumerate_lenart_tableaux(Partition((2,)), Partition((3,)), 3))
        assert got == []

    def test_non_skew_pair_is_an_error(self):
        with pytest.raises(ValueError, match="not a skew shape"):
            list(enumerate_lenart_tableaux(Partition((2, 2)), Partition((3, 1)), 3))

    def test_yielded_tableaux_validate(self):
        lam, mu = Partition((3, 1)), Partition((3, 2, 2))
        fills = list(enumerate_lenart_tableaux(lam, mu, 3))
        assert fills
        for t in fills:
            assert is_valid_lenart(mu, lam, t, 3)

    def test_row_major_order_against_brute_force(self):
        n = 3
        for mu in partitions_in_box(3, 3):
            for lam in partitions_in_box(3, 3):
                if not mu.contains(lam) or mu.size() - lam.size() > 4:
                    continue
                expected = brute_force_fillings(
                    mu.size() - lam.size(),
                    [(v,) for v in range(1, n + 1)],
                    lambda cells: is_valid_lenart(mu, lam, cells, n),
                )
                got = list(enumerate_lenart_tableaux(lam, mu, n))
                assert got == sorted(expected), (lam.parts, mu.parts)

    def test_layout_caps_by_row_and_cells_below(self):
        # The flagged cap is min(r - 1, n - cells below) in 1-based row r, at
        # or under the flag min(n, r - 1). It is strictly under the flag only
        # where mu has more rows than n, so those n are included.
        capped = 0
        for mu in partitions_in_box(4, 4):
            for lam in partitions_in_box(4, 4):
                if not mu.contains(lam):
                    continue
                for n in range(1, 7):
                    _, _, cap = _layout(mu, lam, n, True)
                    positions = [
                        (r, c)
                        for r in range(len(mu))
                        for c in range(lam.part(r + 1), mu.part(r + 1))
                    ]
                    assert len(cap) == len(positions)
                    for (r, c), bound in zip(positions, cap):
                        below = sum(1 for s in range(r + 1, len(mu)) if mu.part(s + 1) > c)
                        assert bound <= r and bound <= n - below
                        capped += bound < min(n, r)
        assert capped > 0

    def test_flag_bound_is_row_minus_one(self):
        # row 2 may only hold label 1; row 3 labels up to 2
        lam, mu = Partition((3, 1)), Partition((3, 2, 2))
        for t in enumerate_lenart_tableaux(lam, mu, 3):
            for r, _, labels in cells(mu, lam, t):
                assert all(x <= r for x in labels)  # r is 0-based


def _recursive_set_valued_fills(lam, n):
    """The recursion the set-valued fill replaced, one call per label added:
    (cells, content, sign) of each filling, in the fill's order."""
    cells = [(r, c) for r in range(len(lam)) for c in range(lam.part(r + 1))]
    labels = {cell: [] for cell in cells}
    fills = []

    def fill(idx, sign):
        if idx == len(cells):
            flat_cells = tuple(tuple(labels[cell]) for cell in cells)
            content = [0] * n
            for cell in flat_cells:
                for v in cell:
                    content[v - 1] += 1
            fills.append((flat_cells, tuple(content), sign))
            return
        r, c = cells[idx]
        lo = 1
        if c > 0:
            lo = labels[(r, c - 1)][-1]
        if r > 0 and labels[(r - 1, c)][-1] >= lo:
            lo = labels[(r - 1, c)][-1] + 1
        grow(idx, lo, sign)

    def grow(idx, start, sign):
        r, c = cells[idx]
        below = sum(1 for s in range(r + 1, len(lam)) if lam.part(s + 1) > c)
        cell = labels[(r, c)]
        for v in range(start, n - below + 1):
            cell.append(v)
            fill(idx + 1, sign)
            grow(idx, v + 1, -sign)
            cell.pop()

    fill(0, 1)
    return fills


def listed_strips_set_valued_dominant(
    lam: Partition, n: int
) -> dict[ExponentVector, int]:
    """The set-valued dominant kernel that lists every horizontal strip in
    its box and filters afterwards: it drops the strips whose columns the
    labels still to come cannot fill and those longer than every prefix's
    last entry, and it still makes states that cannot reach lam. It is kept
    verbatim as the reference: the same branching (Buch 2002) with each bound
    a filter, not the end of a range, so its dicts are the ones
    set_valued_dominant_contents must return.
    """
    target = lam.parts
    rows = len(target)
    layer: dict[tuple[int, ...], dict[ExponentVector, int]] = {(0,) * rows: {(): 1}}
    for left in reversed(range(n)):
        grown_layer: dict[tuple[int, ...], dict[ExponentVector, int]] = {}
        for mu, prefixes in layer.items():
            size = sum(mu)
            top = max(prefix[-1] if prefix else lam.part(1) for prefix in prefixes)
            bounds = [
                range(mu[r], min(target[r], mu[r - 1] if r else target[0]) + 1)
                for r in range(rows)
            ]
            for grown in product(*bounds):
                # Each label still to come adds at most one cell per column.
                if any(target[r + left] > grown[r] for r in range(rows - left)):
                    continue
                added = sum(grown) - size
                # Label i fills more cells than any prefix's last entry.
                if added > top:
                    continue
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


class TestSetValued:
    def test_single_box_three_fillings(self):
        fills = list(enumerate_set_valued(Partition((1,)), 2))
        cells = sorted(t[0] for t in fills)
        assert cells == [(1,), (1, 2), (2,)]

    def test_empty_shape(self):
        fills = list(enumerate_set_valued(Partition(()), 3))
        assert len(fills) == 1
        assert fills[0] == ()

    def test_vertical_domino_is_forced(self):
        fills = list(enumerate_set_valued(Partition((1, 1)), 2))
        assert len(fills) == 1
        assert split_rows(fills[0], [1, 1]) == (((1,),), ((2,),))

    def test_yielded_tableaux_validate(self):
        lam = Partition((2, 1))
        for t in enumerate_set_valued(lam, 3):
            assert is_valid_set_valued(lam, Partition(), t, 3)

    def test_deterministic_order(self):
        runs = [
            [split_rows(t, [2]) for t in enumerate_set_valued(Partition((2,)), 3)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_major_order_against_brute_force(self, n):
        for lam in partitions_in_box(3, 3):
            if lam.size() > 3:
                continue
            expected = brute_force_fillings(
                lam.size(),
                nonempty_subsets(n),
                lambda cells: is_valid_set_valued(lam, Partition(), cells, n),
            )
            assert list(enumerate_set_valued(lam, n)) == sorted(expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_polynomial_against_brute_force(self, n):
        for lam in partitions_in_box(3, 3):
            if lam.size() > 3 or len(lam) > n:
                continue
            expected: dict[tuple[int, ...], int] = {}
            fillings = brute_force_fillings(
                lam.size(),
                nonempty_subsets(n),
                lambda cells: is_valid_set_valued(lam, Partition(), cells, n),
            )
            for cells in fillings:
                labels = [x for cell in cells for x in cell]
                alpha = tuple(labels.count(i) for i in range(1, n + 1))
                sign = (-1) ** (len(labels) - lam.size())
                expected[alpha] = expected.get(alpha, 0) + sign
            got = grothendieck_setvalued(lam, n)
            assert dict(got.items()) == {a: c for a, c in expected.items() if c}, lam.parts

    def test_loop_matches_the_recursion(self):
        # The fill loops over the cell index; the recursion it replaced is
        # the reference, same cells, contents and signs in the same order.
        for lam in partitions_in_box(3, 3):
            for n in range(max(1, len(lam)), 6):
                got = [
                    (tuple(map(tuple, cells)), tuple(counts), sign)
                    for cells, counts, sign in _fill_set_valued(lam, n)
                ]
                assert got == _recursive_set_valued_fills(lam, n), (lam.parts, n)

    def test_a_row_of_600_boxes_past_the_recursion_limit(self):
        got = grothendieck_setvalued(Partition((600,)), 1)
        assert dict(got.items()) == {(600,): 1}

    def test_degree_zero_layer_is_plain_ssyt(self):
        lam = Partition((2, 1))
        minimal = [
            t
            for t in enumerate_set_valued(lam, 3)
            if label_count(t) == lam.size()
        ]
        assert len(minimal) == sum(1 for _ in enumerate_ssyt(lam, 3))


class TestSetValuedDominant:
    """set_valued_dominant_contents makes only the states that the labels
    still to come can complete; the kernel that listed every strip and
    filtered it is the reference."""

    @pytest.mark.parametrize(
        "cases",
        [
            [(lam, n) for lam in partitions_in_box(4, 4) for n in range(max(1, len(lam)), 8)],
            [(Partition((1,)), n) for n in range(1, 121)],
            [(Partition((k,)), n) for k in range(1, 41) for n in range(1, 5)],
            [
                (Partition((6, 4, 2)), 9),
                (Partition((8, 1, 1, 1, 1)), 9),
                (Partition((5, 4, 3, 2, 1)), 10),
            ],
        ],
        ids=["4x4-box", "one-column", "one-row", "staircases"],
    )
    def test_matches_the_reference(self, cases):
        for lam, n in cases:
            expected = listed_strips_set_valued_dominant(lam, n)
            assert set_valued_dominant_contents(lam, n) == expected, (lam.parts, n)

    def test_holds_no_state_that_cannot_complete(self):
        # gc.collect() empties the interpreter's free lists, so every tuple
        # the kernel frees stays counted and the peak follows the states it
        # makes, whichever tests ran before. On Python 3.11 the kernel peaks
        # at 0.34 MiB and the listing reference at 0.78 MiB.
        gc.collect()
        tracemalloc.start()
        try:
            set_valued_dominant_contents(Partition((4, 3, 2, 1)), 8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 0.4 * (1 << 20)


class TestContent:
    def test_lenart_label_counts_match_added_boxes(self):
        lam, mu = Partition((3, 1)), Partition((3, 2, 1))
        for t in enumerate_lenart_tableaux(lam, mu, 3):
            assert label_count(t) == mu.size() - lam.size() == 2


class TestStreaming:
    # A view that ran its whole fill before the first yield would peak at
    # about 75 MiB (608,256 SSYT) and 58 MiB on these shapes.
    @pytest.mark.parametrize(
        "view, parts, n",
        [(enumerate_ssyt, (4, 3, 2, 1), 9), (enumerate_set_valued, (3, 2, 1), 6)],
    )
    def test_the_first_tableau_comes_without_the_rest(self, view, parts, n):
        tableaux = view(Partition(parts), n)
        tracemalloc.start()
        try:
            first = next(tableaux)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(first) == sum(parts)
        assert peak < 1 << 20


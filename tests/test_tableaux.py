"""Tableau enumeration engines against independent counting oracles."""

from functools import lru_cache
from itertools import combinations, product

import pytest

from grothsnp import Partition, grothendieck_setvalued, partitions_in_box, schur_polynomial
from grothsnp.tableaux import (
    Tableau,
    _gelfand_tsetlin,
    enumerate_lenart_tableaux,
    enumerate_set_valued,
    enumerate_ssyt,
    ssyt_contents,
    ssyt_dominant_contents,
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


def brute_force_fillings(row_lengths, labels, valid):
    """Every assignment of one entry of labels to each cell, kept if valid;
    row-major as flat tuples of cells."""
    kept = []
    for cells in product(labels, repeat=sum(row_lengths)):
        rows, start = [], 0
        for length in row_lengths:
            rows.append(tuple(cells[start : start + length]))
            start += length
        if valid(tuple(rows)):
            kept.append(cells)
    return kept


# Post-hoc validity predicates: the definitions of the three families,
# checked cell by cell on a finished Tableau. They are the references the
# brute-force order tests filter all label assignments with.


def cells(t: Tableau):
    """(row, column, labels) in row-major order, 0-based absolute coordinates."""
    for r, row in enumerate(t.entries):
        start = t.inner.part(r + 1)
        for offset, labels in enumerate(row):
            yield r, start + offset, labels


def labels_at(t: Tableau, r: int, c: int):
    """The labels at row r, absolute column c, or None outside the skew shape."""
    if 0 <= r < len(t.outer) and t.inner.part(r + 1) <= c < t.outer.part(r + 1):
        return t.entries[r][c - t.inner.part(r + 1)]
    return None


def is_valid_ssyt(t: Tableau, n: int) -> bool:
    """Straight shape, singleton cells in 1..n, rows weak, columns strict."""
    if len(t.inner) != 0:
        return False
    for r, c, labels in cells(t):
        if len(labels) != 1 or not 1 <= labels[0] <= n:
            return False
        left, above = labels_at(t, r, c - 1), labels_at(t, r - 1, c)
        if left is not None and left[0] > labels[0]:
            return False
        if above is not None and above[0] >= labels[0]:
            return False
    return True


def is_valid_lenart(t: Tableau, lam: Partition, mu: Partition, n: int) -> bool:
    """Skew shape mu/lam, strict rows and columns, row r capped at r-1."""
    if t.outer != mu or t.inner != lam:
        return False
    for r, c, labels in cells(t):
        if len(labels) != 1:
            return False
        v = labels[0]
        if not 1 <= v <= min(n, r):  # r is 0-based, so the cap is (r+1)-1 = r
            return False
        left, above = labels_at(t, r, c - 1), labels_at(t, r - 1, c)
        if left is not None and left[0] >= v:
            return False
        if above is not None and above[0] >= v:
            return False
    return True


def is_valid_set_valued(t: Tableau, n: int) -> bool:
    """Straight shape, nonempty cells in 1..n, weak rows / strict columns on extremes."""
    if len(t.inner) != 0:
        return False
    for r, c, labels in cells(t):
        if not labels or labels[-1] > n:
            return False
        left, above = labels_at(t, r, c - 1), labels_at(t, r - 1, c)
        if left is not None and left[-1] > labels[0]:
            return False
        if above is not None and above[-1] >= labels[0]:
            return False
    return True


def flat(t: Tableau) -> tuple:
    return tuple(labels for row in t.entries for labels in row)


def label_count(t: Tableau) -> int:
    return sum(len(labels) for labels in flat(t))


def nonempty_subsets(n: int) -> list[tuple[int, ...]]:
    return [s for k in range(1, n + 1) for s in combinations(range(1, n + 1), k)]


class TestSsyt:
    def test_single_box(self):
        fills = list(enumerate_ssyt(Partition((1,)), 2))
        assert len(fills) == 2
        assert {t.entries for t in fills} == {(((1,),),), (((2,),),)}

    def test_hook_shape_and_kostka(self):
        fills = list(enumerate_ssyt(Partition((2, 1)), 3))
        assert len(fills) == 8
        standard = [t for t in fills if sorted(flat(t)) == [(1,), (2,), (3,)]]
        assert len(standard) == 2

    def test_tall_column_is_infeasible(self):
        assert list(enumerate_ssyt(Partition((1, 1, 1)), 2)) == []

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_counts_match_oracle(self, n):
        for lam in partitions_in_box(3, 4):
            got = sum(1 for _ in enumerate_ssyt(lam, n))
            assert got == ssyt_count_oracle(lam.parts, n), (lam.parts, n)

    def test_yields_only_valid_tableaux(self):
        for t in enumerate_ssyt(Partition((2, 2)), 3):
            assert is_valid_ssyt(t, 3)

    def test_deterministic_order(self):
        first = [t.entries for t in enumerate_ssyt(Partition((2, 1)), 3)]
        second = [t.entries for t in enumerate_ssyt(Partition((2, 1)), 3)]
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
                list(lam.parts),
                singletons,
                lambda rows: is_valid_ssyt(Tableau(lam, Partition(), rows), n),
            )
            assert [flat(t) for t in enumerate_ssyt(lam, n)] == sorted(expected)


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
        assert [flat(t).count((1,)) for t in fills] == sorted(
            (alpha[0] for alpha in contents), reverse=True
        )


@lru_cache(maxsize=None)
def recursive_gelfand_tsetlin(row):
    """The recursion _gelfand_tsetlin replaced: one call per row."""
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
    """_gelfand_tsetlin fills its row memo level by level, shortest rows
    first; the recursion it replaced is the reference, the same dicts with
    the same key order."""

    @pytest.mark.parametrize("fresh", [True, False], ids=["cleared", "shared"])
    def test_matches_the_recursion(self, fresh):
        for lam in partitions_in_box(4, 4):
            for n in range(len(lam), 7):
                if fresh:
                    _gelfand_tsetlin.cache_clear()
                row = lam.padded(n)
                expected = recursive_gelfand_tsetlin(row)
                got = _gelfand_tsetlin(row)
                assert list(got.items()) == list(expected.items()), row

    def test_1200_rows_past_the_recursion_limit(self):
        contents = ssyt_dominant_contents(Partition((1,)), 1200)
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
            assert flat(fills[0]) == ()

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
            assert is_valid_lenart(t, lam, mu, 3)

    def test_row_major_order_against_brute_force(self):
        n = 3
        for mu in partitions_in_box(3, 3):
            for lam in partitions_in_box(3, 3):
                if not mu.contains(lam) or mu.size() - lam.size() > 4:
                    continue
                lengths = [mu.part(r + 1) - lam.part(r + 1) for r in range(len(mu))]
                expected = brute_force_fillings(
                    lengths,
                    [(v,) for v in range(1, n + 1)],
                    lambda rows: is_valid_lenart(Tableau(mu, lam, rows), lam, mu, n),
                )
                got = [flat(t) for t in enumerate_lenart_tableaux(lam, mu, n)]
                assert got == sorted(expected), (lam.parts, mu.parts)

    def test_flag_bound_is_row_minus_one(self):
        # row 2 may only hold label 1; row 3 labels up to 2
        for t in enumerate_lenart_tableaux(Partition((3, 1)), Partition((3, 2, 2)), 3):
            for r, _, labels in cells(t):
                assert all(x <= r for x in labels)  # r is 0-based


class TestSetValued:
    def test_single_box_three_fillings(self):
        fills = list(enumerate_set_valued(Partition((1,)), 2))
        cells = sorted(t.entries[0][0] for t in fills)
        assert cells == [(1,), (1, 2), (2,)]

    def test_empty_shape(self):
        fills = list(enumerate_set_valued(Partition(()), 3))
        assert len(fills) == 1
        assert flat(fills[0]) == ()

    def test_vertical_domino_is_forced(self):
        fills = list(enumerate_set_valued(Partition((1, 1)), 2))
        assert len(fills) == 1
        assert fills[0].entries == (((1,),), ((2,),))

    def test_yielded_tableaux_validate(self):
        for t in enumerate_set_valued(Partition((2, 1)), 3):
            assert is_valid_set_valued(t, 3)

    def test_deterministic_order(self):
        runs = [
            [t.entries for t in enumerate_set_valued(Partition((2,)), 3)]
            for _ in range(2)
        ]
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_row_major_order_against_brute_force(self, n):
        for lam in partitions_in_box(3, 3):
            if lam.size() > 3:
                continue
            expected = brute_force_fillings(
                list(lam.parts),
                nonempty_subsets(n),
                lambda rows: is_valid_set_valued(Tableau(lam, Partition(), rows), n),
            )
            assert [flat(t) for t in enumerate_set_valued(lam, n)] == sorted(expected)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_polynomial_against_brute_force(self, n):
        for lam in partitions_in_box(3, 3):
            if lam.size() > 3 or len(lam) > n:
                continue
            expected: dict[tuple[int, ...], int] = {}
            fillings = brute_force_fillings(
                list(lam.parts),
                nonempty_subsets(n),
                lambda rows: is_valid_set_valued(Tableau(lam, Partition(), rows), n),
            )
            for cells in fillings:
                labels = [x for cell in cells for x in cell]
                alpha = tuple(labels.count(i) for i in range(1, n + 1))
                sign = (-1) ** (len(labels) - lam.size())
                expected[alpha] = expected.get(alpha, 0) + sign
            got = grothendieck_setvalued(lam, n)
            assert dict(got.items()) == {a: c for a, c in expected.items() if c}, lam.parts

    def test_degree_zero_layer_is_plain_ssyt(self):
        lam = Partition((2, 1))
        minimal = [
            t
            for t in enumerate_set_valued(lam, 3)
            if label_count(t) == lam.size()
        ]
        assert len(minimal) == sum(1 for _ in enumerate_ssyt(lam, 3))


class TestContent:
    def test_lenart_label_counts_match_added_boxes(self):
        lam, mu = Partition((3, 1)), Partition((3, 2, 1))
        for t in enumerate_lenart_tableaux(lam, mu, 3):
            assert label_count(t) == mu.size() - lam.size() == 2


class TestTableauType:
    def test_entries_must_fit_the_skew_shape(self):
        with pytest.raises(ValueError):
            Tableau(outer=Partition((2,)), inner=Partition(()), entries=(((1,),),))

    def test_empty_cells_rejected(self):
        with pytest.raises(ValueError):
            Tableau(outer=Partition((1,)), inner=Partition(()), entries=(((),),))

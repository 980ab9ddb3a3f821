"""Partitions, dominance, majorization, and exact convex mixes."""

import re
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grothsnp import Partition, partitions_in_box, partitions_of_size
from grothsnp.partitions import convex_combination, dominated_partitions, majorizes


def all_partitions_of(size: int) -> list[Partition]:
    cap = max(size, 1)
    return list(partitions_of_size(size, cap, cap))


class TestPartitionType:
    def test_trailing_zeros_are_stripped(self):
        assert Partition((3, 1, 0)).parts == (3, 1)
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition(()) == Partition((0, 0))
        assert Partition((3, 1) + (0,) * 20_000).parts == (3, 1)

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

    @pytest.mark.parametrize("bad", [2.5, 2.0, "3", Fraction(2)])
    def test_rejects_non_integer_parts(self, bad):
        # no truncation to (2, 1) and no parsing of "3"
        with pytest.raises(ValueError, match=f"must be integers: {re.escape(repr(bad))}"):
            Partition((bad, 1))

    def test_size_and_rows(self):
        lam = Partition((3, 1, 0))
        assert lam.size() == 4
        assert len(lam) == 2

    def test_part_is_one_based_and_zero_padded(self):
        lam = Partition((3, 1))
        assert [lam.part(r) for r in (1, 2, 3, 9)] == [3, 1, 0, 0]

    def test_padded(self):
        assert Partition((3, 1)).padded(4) == (3, 1, 0, 0)
        with pytest.raises(ValueError):
            Partition((3, 1)).padded(1)

    def test_containment(self):
        assert Partition((3, 2)).contains(Partition((3, 1)))
        assert not Partition((3, 1)).contains(Partition((2, 2)))

    def test_add_box(self):
        lam = Partition((3, 1))
        assert lam.add_box(2) == Partition((3, 2))
        assert lam.add_box(3) == Partition((3, 1, 1))
        assert lam.can_add_box(1)
        assert lam.can_add_box(2)
        assert lam.can_add_box(3)
        assert not Partition((2, 2)).can_add_box(2)
        with pytest.raises(ValueError):
            Partition((2, 2)).add_box(2)


def dominated(theta: Partition, delta: Partition) -> bool:
    """Dominance order on partitions: theta is below delta."""
    return majorizes(delta.parts, theta.parts)


class TestDominance:
    def test_spec_examples(self):
        assert dominated(Partition((2, 2)), Partition((3, 1)))
        assert not dominated(Partition((3, 1)), Partition((2, 2)))
        assert not dominated(Partition((3, 2, 0)), Partition((3, 1, 1)))
        assert dominated(Partition((3, 1, 1)), Partition((3, 2, 0)))

    def test_unequal_sizes_error(self):
        with pytest.raises(ValueError, match="majorization undefined across unequal sums"):
            dominated(Partition((2,)), Partition((1,)))

    @pytest.mark.parametrize("size", range(0, 9))
    def test_partial_order_axioms(self, size):
        shapes = all_partitions_of(size)
        for a in shapes:
            assert dominated(a, a)
        for a in shapes:
            for b in shapes:
                if dominated(a, b) and dominated(b, a):
                    assert a == b
        for a in shapes:
            below_a = [b for b in shapes if dominated(b, a)]
            for b in below_a:
                for c in shapes:
                    if dominated(c, b):
                        assert dominated(c, a)


class TestMajorizes:
    def test_spec_examples(self):
        assert majorizes((2, 1, 0), (1, 1, 1))
        assert majorizes((2, 1, 0), (0, 1, 2))
        assert not majorizes((3, 2, 2), (3, 3, 1))

    def test_unequal_sums_error(self):
        with pytest.raises(ValueError):
            majorizes((2, 1, 0), (1, 1, 0))

    def test_negative_entries_error(self):
        with pytest.raises(ValueError):
            majorizes((2, 1, 0), (4, 0, -1))

    def test_permutation_invariance(self):
        import itertools

        mu = (3, 2, 1)
        for v in [(2, 2, 2), (3, 3, 0), (1, 2, 3)]:
            answers = {majorizes(mu, p) for p in itertools.permutations(v)}
            assert len(answers) == 1

    @pytest.mark.parametrize(
        "mu,v",
        [
            ((1, 1), (Fraction(3, 2), Fraction(1, 2))),
            ((Fraction(2), 0), (1, 1)),
            ((2.0, 0), (1, 1)),
            ((2, 0), (1.0, 1)),
            ((2, 0), ("1", 1)),
        ],
        ids=["Fraction-v", "Fraction-mu", "float-mu", "float-v", "str-v"],
    )
    def test_non_integer_entries_are_refused(self, mu, v):
        # no comparison of rationals, even ones equal to integers
        with pytest.raises(TypeError):
            majorizes(mu, v)


# Rationals in [0, 8] with denominators up to 12, as numerators over 12.
nonneg_twelfths = st.integers(min_value=0, max_value=96)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.tuples(
            st.lists(nonneg_twelfths, min_size=k, max_size=k),
            st.lists(nonneg_twelfths, min_size=k, max_size=k),
        )
    )
)
@settings(max_examples=1000, derandomize=True, deadline=None)
def test_majorization_triangle(pair):
    """a+b is majorized by the sum of the decreasing rearrangements."""
    a, b = pair
    total = tuple(x + y for x, y in zip(a, b))
    bound = tuple(
        x + y for x, y in zip(sorted(a, reverse=True), sorted(b, reverse=True))
    )
    assert majorizes(bound, total)


class TestConvexCombination:
    """Integer weights of total d give the mix scaled by d."""

    def test_unit_weight_identity(self):
        assert convex_combination((1,), ((3, 1, 0),)) == (3, 1, 0)
        vectors = ((5, 0, 1), (2, 2, 2), (0, 0, 6))
        for i in range(3):
            weights = tuple(int(i == j) for j in range(3))
            assert convex_combination(weights, vectors) == vectors[i]

    def test_midpoint(self):
        # (1/2, 1/2) as (1, 1) over 2
        got = convex_combination((1, 1), ((2, 0), (0, 2)))
        assert got == (2, 2)

    def test_spec_rational_example(self):
        # (1/3, 2/3) as (1, 2) over 3: the mix (3, 5/3, 2/3) times 3
        got = convex_combination((1, 2), ((3, 1, 0), (3, 2, 1)))
        assert got == (9, 5, 2)

    def test_weight_total_must_be_positive(self):
        with pytest.raises(ValueError, match="positive total"):
            convex_combination((0,), ((1, 0),))
        with pytest.raises(ValueError, match="positive total"):
            convex_combination((), ())

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            convex_combination((3, -1), ((1, 0), (0, 1)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convex_combination((1, 1), ((1, 0), (0, 1, 0)))

    @pytest.mark.parametrize(
        "weights,vectors",
        [
            ((Fraction(1, 2), Fraction(1, 2)), ((2, 0), (0, 2))),
            ((1, 1), ((2.0, 0), (0, 2))),
        ],
        ids=["Fraction-weight", "float-entry"],
    )
    def test_non_integer_inputs_are_refused(self, weights, vectors):
        with pytest.raises(TypeError):
            convex_combination(weights, vectors)


class TestEnumerators:
    def test_partitions_of_size_counts(self):
        # p(0..8) with unrestricted rows and parts
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for size, count in enumerate(expected):
            assert len(all_partitions_of(size)) == count

    def test_partitions_in_box_count(self):
        # binomial(4+4, 4) shapes fit in a 4x4 box
        assert len(list(partitions_in_box(4, 4))) == 70


def recursive_partitions_of_size(total, max_rows=None, max_part=None):
    """The recursion partitions_of_size replaced: one generator frame per row,
    None meaning no bound beyond the total."""
    rows_cap = total if max_rows is None else max_rows
    part_cap = total if max_part is None else max_part

    def rec(remaining, cap, depth, prefix):
        if remaining == 0:
            yield Partition(prefix)
            return
        if depth == rows_cap:
            return
        for p in range(min(cap, remaining), 0, -1):
            yield from rec(remaining - p, p, depth + 1, prefix + (p,))

    yield from rec(total, part_cap, 0, ())


class TestDominanceWalk:
    """partitions_of_size is the walk of dominated_partitions under the
    greatest partition its bounds allow; the recursion it replaced is the
    reference, same partitions in the same order."""

    @pytest.mark.parametrize("total", range(14))
    def test_partitions_of_size_matches_the_recursion(self, total):
        for rows in (None, 0, 1, 2, 3, 5, 20):
            for part in (None, 0, 1, 2, 3, 7):
                expected = list(recursive_partitions_of_size(total, rows, part))
                got = list(
                    partitions_of_size(
                        total,
                        total if rows is None else rows,
                        total if part is None else part,
                    )
                )
                assert got == expected, (total, rows, part)

    def test_walk_yields_only_dominated_partitions_in_order(self):
        for size in range(9):
            for weight in recursive_partitions_of_size(size):
                for n in range(len(weight), len(weight) + 3):
                    walked = list(dominated_partitions(weight.padded(n)))
                    expected = [
                        nu.parts
                        for nu in recursive_partitions_of_size(size, n)
                        if dominated(nu, weight)
                    ]
                    assert walked == expected, (weight, n)

    def test_a_column_past_the_recursion_limit(self):
        assert list(partitions_of_size(1500, 1500, 1)) == [Partition((1,) * 1500)]

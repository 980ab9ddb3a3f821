"""Partitions, dominance, majorization, and exact convex mixes."""

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from grothsnp import Partition, partitions_in_box, partitions_of_size
from grothsnp.partitions import convex_combination, dominance_leq, majorizes


def all_partitions_of(size: int) -> list[Partition]:
    cap = max(size, 1)
    return list(partitions_of_size(size, cap, cap))


class TestPartitionType:
    def test_trailing_zeros_are_stripped(self):
        assert Partition((3, 1, 0)).parts == (3, 1)
        assert Partition((3, 1, 0, 0)) == Partition((3, 1))
        assert Partition(()) == Partition((0, 0))

    def test_rejects_increasing_parts(self):
        with pytest.raises(ValueError):
            Partition((1, 3))

    def test_rejects_negative_parts(self):
        with pytest.raises(ValueError):
            Partition((2, -1))

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


class TestDominance:
    def test_spec_examples(self):
        assert dominance_leq(Partition((2, 2)), Partition((3, 1)))
        assert not dominance_leq(Partition((3, 1)), Partition((2, 2)))
        assert not dominance_leq(Partition((3, 2, 0)), Partition((3, 1, 1)))
        assert dominance_leq(Partition((3, 1, 1)), Partition((3, 2, 0)))

    def test_unequal_sizes_error(self):
        with pytest.raises(ValueError, match="dominance undefined across sizes"):
            dominance_leq(Partition((2,)), Partition((1,)))

    @pytest.mark.parametrize("size", range(0, 9))
    def test_partial_order_axioms(self, size):
        shapes = all_partitions_of(size)
        for a in shapes:
            assert dominance_leq(a, a)
        for a in shapes:
            for b in shapes:
                if dominance_leq(a, b) and dominance_leq(b, a):
                    assert a == b
        for a in shapes:
            below_a = [b for b in shapes if dominance_leq(b, a)]
            for b in below_a:
                for c in shapes:
                    if dominance_leq(c, b):
                        assert dominance_leq(c, a)


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


nonneg_rationals = st.fractions(
    min_value=0, max_value=8, max_denominator=12
)


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda k: st.tuples(
            st.lists(nonneg_rationals, min_size=k, max_size=k),
            st.lists(nonneg_rationals, min_size=k, max_size=k),
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
    def test_unit_weight_identity(self):
        assert convex_combination((1,), ((3, 1, 0),)) == (3, 1, 0)
        vectors = ((5, 0, 1), (2, 2, 2), (0, 0, 6))
        for i in range(3):
            weights = tuple(Fraction(int(i == j)) for j in range(3))
            assert convex_combination(weights, vectors) == vectors[i]

    def test_midpoint(self):
        got = convex_combination((Fraction(1, 2), Fraction(1, 2)), ((2, 0), (0, 2)))
        assert got == (1, 1)

    def test_spec_rational_example(self):
        got = convex_combination(
            (Fraction(1, 3), Fraction(2, 3)), ((3, 1, 0), (3, 2, 1))
        )
        assert got == (3, Fraction(5, 3), Fraction(2, 3))

    def test_weight_sum_must_be_one(self):
        with pytest.raises(ValueError):
            convex_combination((Fraction(1, 2),), ((1, 0),))

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError):
            convex_combination((Fraction(3, 2), Fraction(-1, 2)), ((1, 0), (0, 1)))

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            convex_combination((Fraction(1, 2), Fraction(1, 2)), ((1, 0), (0, 1, 0)))


class TestEnumerators:
    def test_partitions_of_size_counts(self):
        # p(0..8) with unrestricted rows and parts
        expected = [1, 1, 2, 3, 5, 7, 11, 15, 22]
        for size, count in enumerate(expected):
            assert len(all_partitions_of(size)) == count

    def test_partitions_in_box_count(self):
        # binomial(4+4, 4) shapes fit in a 4x4 box
        assert len(list(partitions_in_box(4, 4))) == 70

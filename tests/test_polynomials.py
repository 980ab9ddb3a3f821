"""Sparse exact-integer polynomials: construction, sums, components, serialization."""

import json

import pytest
from hypothesis import given, settings, strategies as st

from grothsnp import Partition, SparsePolynomial, schur_polynomial


def x(i, n=2):
    """The monomial x_i (0-based index) in n variables."""
    return SparsePolynomial(n, {tuple(int(j == i) for j in range(n)): 1})


def is_symmetric(f):
    """Invariance of f under all adjacent variable swaps (hence under S_n)."""
    terms = dict(f.items())
    for i in range(f.n - 1):
        for exp, coeff in terms.items():
            swapped = list(exp)
            swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
            if terms.get(tuple(swapped), 0) != coeff:
                return False
    return True


class TestConstruction:
    def test_zero_coefficients_are_purged(self):
        f = SparsePolynomial(2, {(1, 0): 1, (0, 1): 0})
        assert f.support() == {(1, 0)}
        assert len(f) == 1

    def test_key_length_is_checked(self):
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(1, 0, 0): 1})

    def test_negative_exponents_rejected(self):
        with pytest.raises(ValueError):
            SparsePolynomial(2, {(-1, 0): 1})


class TestRingOperations:
    def test_add_cancels_to_zero(self):
        f = x(0) + SparsePolynomial(2, {(1, 0): -1})
        assert f == SparsePolynomial(2, {})
        assert not f
        assert f.support() == set()

    def test_ambient_mismatch(self):
        with pytest.raises(ValueError, match="ambient mismatch"):
            x(0, 2) + x(0, 3)


small_polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3)),
    st.integers(-3, 3),
    max_size=4,
).map(lambda terms: SparsePolynomial(2, terms))


@given(small_polys)
@settings(max_examples=200, derandomize=True, deadline=None)
def test_components_sum_back(f):
    total = SparsePolynomial(2, {})
    for k in f.degrees():
        total = total + f.homogeneous_component(k)
    assert total == f


class TestQueries:
    def test_homogeneous_component(self):
        f = SparsePolynomial(2, {(1, 0): 1, (1, 1): 1})
        assert f.homogeneous_component(1) == x(0)
        assert f.homogeneous_component(3) == SparsePolynomial(2, {})

    def test_support_examples(self):
        assert SparsePolynomial(2, {}).support() == set()
        f = SparsePolynomial(2, {(2, 0): 1, (0, 2): -1})
        assert f.support() == {(2, 0), (0, 2)}
        s1 = schur_polynomial(Partition((1,)), 3)
        assert s1.support() == {(1, 0, 0), (0, 1, 0), (0, 0, 1)}

    def test_is_symmetric(self):
        assert is_symmetric(x(0) + x(1))
        assert not is_symmetric(SparsePolynomial(2, {(1, 0): 1, (0, 1): -1}))

    def test_degree_range(self):
        f = SparsePolynomial(2, {(0, 0): 1, (2, 1): -1})
        assert f.max_degree() == 3
        assert f.degrees() == [0, 3]
        assert SparsePolynomial(2, {}).max_degree() is None
        assert SparsePolynomial(2, {}).degrees() == []


class TestSerialization:
    def test_graded_lex_order(self):
        f = SparsePolynomial(
            2, {(2, 0): 1, (0, 1): 2, (1, 0): 3, (0, 2): 4, (1, 1): 5}
        )
        doc = f.to_json_dict()
        assert doc == {
            "n": 2,
            "terms": [
                {"exp": [0, 1], "coeff": 2},
                {"exp": [1, 0], "coeff": 3},
                {"exp": [0, 2], "coeff": 4},
                {"exp": [1, 1], "coeff": 5},
                {"exp": [2, 0], "coeff": 1},
            ],
        }

    def test_bit_exact_across_runs(self):
        f = SparsePolynomial(2, {(3, 1): -2, (0, 0): 1, (1, 3): 2})
        assert json.dumps(f.to_json_dict()) == json.dumps(f.to_json_dict())

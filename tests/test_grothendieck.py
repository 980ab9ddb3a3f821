"""Grothendieck polynomials, the greedy chain, and the majorization checks."""

import inspect
import random
import types
from itertools import permutations
from math import gcd, lcm, prod

import pytest
from hypothesis import given, settings, strategies as st

from grothsnp import (
    MuChain,
    Partition,
    SchurExpansion,
    SparsePolynomial,
    check_claim_a,
    check_claim_b,
    check_claim_c,
    check_lemmas_random,
    grothendieck_lenart,
    grothendieck_setvalued,
    mu_chain,
    partitions_in_box,
    schur_expansion,
    schur_polynomial,
)
from grothsnp import battery, branching, grothendieck, polytopes, tableaux
from grothsnp.branching import lenart_shape_counts
from grothsnp.exactlp import convex_certificate
from grothsnp.grothendieck import (
    grothendieck_lenart_dominant,
    grothendieck_setvalued_dominant,
)
from grothsnp.partitions import convex_combination, majorizes
from grothsnp.tableaux import _fill

LAM310 = Partition((3, 1))
DIFFERENTIAL_CASES = [
    ((), 2), ((1,), 1), ((3, 1), 3), ((2, 2, 1), 5), ((4, 2, 1), 5), ((3, 1), 4), ((1,), 6),
]


# -- the fill reference: Lenart's coefficients one shape and one filling at a time


def count_lenart_tableaux(lam, mu, n):
    """Number of flagged strictly increasing skew fillings of mu/lam."""
    return sum(1 for _ in _fill(mu, lam, n, True))


def lenart_coefficient(lam, mu, n):
    """Signed count of flagged strictly increasing skew fillings of mu/lam."""
    if not mu.contains(lam) or len(mu) > n:
        return 0
    return (-1) ** (mu.size() - lam.size()) * count_lenart_tableaux(lam, mu, n)


def _candidate_shapes(lam, n):
    """Partitions mu with lam <= mu rowwise and mu_i <= lam_i + i - 1, <= n rows,
    in lexicographic order of their parts, by a loop over the row index with
    -1 marking a row not yet chosen (no recursion, so n = 1000 runs)."""
    lo = lam.padded(n)
    parts = [-1] * n
    i = 0
    while i >= 0:
        if i == n:
            yield Partition(tuple(parts))
            i -= 1
            continue
        p = parts[i] + 1 if parts[i] >= 0 else lo[i]
        if p > min(lo[i] + i, parts[i - 1] if i else lo[0]):
            parts[i] = -1
            i -= 1
        else:
            parts[i] = p
            i += 1


def fill_expansion_terms(lam, n):
    """The Schur expansion's terms by the fill: every candidate shape, each
    coefficient counted one filling at a time, sorted as schur_expansion sorts."""
    terms = [(mu, lenart_coefficient(lam, mu, n)) for mu in _candidate_shapes(lam, n)]
    terms = [(mu, coeff) for mu, coeff in terms if coeff]
    return sorted(terms, key=lambda item: (item[0].size(), item[0].parts))


class TestLenartCoefficient:
    def test_displayed_coefficients(self):
        assert lenart_coefficient(LAM310, Partition((3, 2, 1)), 3) == 2
        assert lenart_coefficient(LAM310, Partition((3, 1, 1)), 3) == -2
        assert lenart_coefficient(LAM310, Partition((3, 2)), 3) == -1
        assert lenart_coefficient(LAM310, Partition((3, 2, 2)), 3) == -1

    def test_equal_shapes(self):
        for parts in [(), (1,), (4, 2, 1)]:
            assert lenart_coefficient(Partition(parts), Partition(parts), 4) == 1

    def test_non_containing_shape_gives_zero(self):
        assert lenart_coefficient(Partition((2, 2)), Partition((3, 1)), 3) == 0

    def test_too_many_rows_gives_zero(self):
        assert lenart_coefficient(Partition((1,)), Partition((1, 1, 1)), 2) == 0


class TestSchurExpansion:
    def test_displayed_expansion(self):
        exp = schur_expansion(LAM310, 3)
        assert dict(exp.terms) == {
            Partition((3, 1)): 1,
            Partition((3, 1, 1)): -2,
            Partition((3, 2)): -1,
            Partition((3, 2, 1)): 2,
            Partition((3, 2, 2)): -1,
        }

    def test_empty_shape(self):
        exp = schur_expansion(Partition(()), 2)
        assert dict(exp.terms) == {Partition(()): 1}

    def test_one_box(self):
        exp = schur_expansion(Partition((1,)), 2)
        assert dict(exp.terms) == {Partition((1,)): 1, Partition((1, 1)): -1}

    def test_terms_sorted_by_size_then_lex(self):
        exp = schur_expansion(LAM310, 3)
        keys = [(mu.size(), mu.parts) for mu, _ in exp.terms]
        assert keys == sorted(keys)

    def test_rows_beyond_n_error(self):
        with pytest.raises(ValueError):
            schur_expansion(Partition((2, 1, 1)), 2)

    def test_invariants_reject_bad_expansions(self):
        lam = Partition((1,))
        with pytest.raises(ValueError):
            SchurExpansion(lam, 2, ((lam, 1), (Partition((1, 1)), 0)))
        with pytest.raises(ValueError):
            SchurExpansion(lam, 2, ((lam, 1), (Partition((1, 1)), 1)))
        with pytest.raises(ValueError):
            SchurExpansion(lam, 2, ((lam, 2),))
        with pytest.raises(ValueError):
            SchurExpansion(lam, 2, ((lam, 1), (Partition((3, 1)), -1)))


def _recursive_candidate_shapes(lam, n):
    """The recursion _candidate_shapes replaced: one call per row."""

    def rec(i, prev, prefix):
        if i > n:
            yield Partition(prefix)
            return
        for p in range(lam.part(i), min(lam.part(i) + i - 1, prev) + 1):
            yield from rec(i + 1, p, prefix + (p,))

    yield from rec(1, lam.part(1), ())


def _recursive_lenart_fills(lam, mu, n):
    """The recursion the flagged fill replaced: one call per cell."""
    cells = [(r, c) for r in range(len(mu)) for c in range(lam.part(r + 1), mu.part(r + 1))]
    values = {}
    fills = []

    def fill(idx):
        if idx == len(cells):
            fills.append(tuple(values[cell] for cell in cells))
            return
        r, c = cells[idx]
        lo = max(values.get((r, c - 1), 0), values.get((r - 1, c), 0)) + 1
        for v in range(lo, min(n, r) + 1):
            values[(r, c)] = v
            fill(idx + 1)

    fill(0)
    return fills


BOX_CASES = [(lam, n) for lam in partitions_in_box(3, 3) for n in range(max(1, len(lam)), 6)]


class TestLoopsMatchRecursion:
    """_candidate_shapes and the flagged _fill loop over a row or cell index;
    the recursions they replaced are the reference, same items in the same
    order."""

    def test_candidate_shapes(self):
        for lam, n in BOX_CASES:
            expected = list(_recursive_candidate_shapes(lam, n))
            assert list(_candidate_shapes(lam, n)) == expected

    def test_lenart_fills_on_the_candidate_shapes(self):
        filled = 0
        for lam, n in BOX_CASES:
            for mu in _recursive_candidate_shapes(lam, n):
                fills = [tuple(values) for values, _ in _fill(mu, lam, n, True)]
                expected = _recursive_lenart_fills(lam, mu, n)
                assert fills == expected
                filled += len(expected) > 1
        assert filled > 0

    def test_a_thousand_rows(self):
        shapes = list(_candidate_shapes(Partition((1,)), 1000))
        assert shapes == [Partition((1,) * k) for k in range(1, 1001)]

    def test_a_column_of_a_thousand_boxes(self):
        column = Partition((1,) * 1000)
        assert count_lenart_tableaux(Partition((1,)), column, 1000) == 1


class TestRookStripPass:
    """schur_expansion counts Lenart's tableaux label by label, every shape at
    once; the fill above, one shape and one filling at a time, is the
    reference."""

    def test_matches_the_fill_on_the_four_by_four_box(self):
        for lam in partitions_in_box(4, 4):
            for n in range(max(1, len(lam)), 8):
                assert schur_expansion(lam, n).terms == tuple(fill_expansion_terms(lam, n))

    def test_a_thousand_column_shapes(self):
        terms = schur_expansion(Partition((1,)), 1000).terms
        assert terms == tuple(
            (Partition((1,) * k), (-1) ** (k - 1)) for k in range(1, 1001)
        )

    def test_a_shape_that_retires_early(self):
        # Rows 3 and 4 of (1, 0, 0, 0) have no addable corner, so the shape
        # leaves the layer at label 2 of 3, with its count.
        assert lenart_shape_counts(Partition((1,)), 4) == {
            (1, 0, 0, 0): 1, (1, 1, 0, 0): 1, (1, 1, 1, 0): 1, (1, 1, 1, 1): 1,
        }


class TestPolynomials:
    def test_one_box_two_variables(self):
        expected = SparsePolynomial(2, {(1, 0): 1, (0, 1): 1, (1, 1): -1})
        assert grothendieck_lenart(Partition((1,)), 2) == expected
        assert grothendieck_setvalued(Partition((1,)), 2) == expected

    def test_empty_shape_is_the_constant(self):
        one = SparsePolynomial(3, {(0, 0, 0): 1})
        assert grothendieck_lenart(Partition(()), 3) == one
        assert grothendieck_setvalued(Partition(()), 3) == one

    def test_lowest_component_is_the_schur_polynomial(self):
        g = grothendieck_lenart(LAM310, 3)
        assert g.homogeneous_component(4) == schur_polynomial(LAM310, 3)

    def test_symmetry(self):
        assert is_symmetric(grothendieck_lenart(LAM310, 3))

    def test_cross_oracle_equality_small_sweep(self):
        for lam in partitions_in_box(3, 3):
            for n in range(max(1, len(lam)), 4):
                assert grothendieck_lenart(lam, n) == grothendieck_setvalued(lam, n)

    def test_sign_alternation_by_degree(self):
        exp = schur_expansion(Partition((2, 1)), 3)
        for mu, coeff in exp.terms:
            k = mu.size() - 3
            assert coeff * (-1) ** k > 0

    def test_rows_beyond_n_error(self):
        with pytest.raises(ValueError):
            grothendieck_setvalued(Partition((1, 1, 1)), 2)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=0, max_value=4), max_size=n),
            st.just(n),
        )
    )
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_schur_assembly_matches_set_valued(case):
    """Lenart's signed Schur expansion, summed term by term here, equals
    Buch's set-valued series on random shapes."""
    parts, n = case
    lam = Partition(tuple(sorted(parts, reverse=True)))
    assembled = SparsePolynomial(n, {})
    for mu, coeff in schur_expansion(lam, n).terms:
        scaled = {w: coeff * c for w, c in schur_polynomial(mu, n).items()}
        assembled = assembled + SparsePolynomial(n, scaled)
    assert assembled == grothendieck_setvalued(lam, n)


def weakly_decreasing(exp) -> bool:
    return all(a >= b for a, b in zip(exp, exp[1:]))


def orbit_expansion(dominant: SparsePolynomial) -> SparsePolynomial:
    """The symmetric polynomial whose dominant terms are `dominant`."""
    return SparsePolynomial(
        dominant.n,
        {point: coeff for exp, coeff in dominant.items() for point in permutations(exp)},
    )


def is_symmetric(f: SparsePolynomial) -> bool:
    """Invariance of f under every permutation of its variables: the orbits
    of its terms at weakly decreasing exponents rebuild it."""
    dominant = {exp: c for exp, c in f.items() if weakly_decreasing(exp)}
    return orbit_expansion(SparsePolynomial(f.n, dominant)) == f


@given(
    st.integers(min_value=1, max_value=5).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=0, max_value=4), max_size=n),
            st.just(n),
        )
    )
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_dominant_terms_fix_both_models(case):
    """Each model is symmetric in full, its full expansion restricted to
    weakly decreasing exponents is its dominant kernel's output, and the
    orbits of those terms rebuild the full expansion. This pins the symmetry
    that the cross-oracle and component-snp checks rely on."""
    parts, n = case
    lam = Partition(tuple(sorted(parts, reverse=True)))
    for full, dominant in (
        (grothendieck_lenart(lam, n), grothendieck_lenart_dominant(lam, n)),
        (grothendieck_setvalued(lam, n), grothendieck_setvalued_dominant(lam, n)),
    ):
        assert is_symmetric(full)
        restricted = {exp: c for exp, c in full.items() if weakly_decreasing(exp)}
        assert restricted == dominant
        assert orbit_expansion(SparsePolynomial(n, dominant)) == full


class TestDominantTerms:
    @pytest.mark.parametrize(
        "parts, n",
        [((4, 2), 6), ((3, 2, 1), 6), ((4, 2, 1), 7), ((20,), 6), ((6, 4, 2), 9)],
    )
    def test_the_two_kernels_agree(self, parts, n):
        lam = Partition(parts)
        lenart = grothendieck_lenart_dominant(lam, n)
        assert lenart == grothendieck_setvalued_dominant(lam, n)
        assert all(weakly_decreasing(exp) for exp in lenart)
        assert max(map(sum, lenart)) == lam.size() + mu_chain(lam, n).length

    def test_one_box_two_variables(self):
        expected = {(1, 0): 1, (1, 1): -1}
        assert grothendieck_lenart_dominant(Partition((1,)), 2) == expected
        assert grothendieck_setvalued_dominant(Partition((1,)), 2) == expected

    @pytest.mark.parametrize("n", [1, 2, 40, 120])
    def test_one_box_is_the_closed_form(self, n):
        """G_(1) = 1 - prod(1 - x_i): its dominant terms are (1^k, 0^(n-k))
        with coefficient (-1)^(k+1)."""
        expected = {(1,) * k + (0,) * (n - k): (-1) ** (k + 1) for k in range(1, n + 1)}
        assert grothendieck_lenart_dominant(Partition((1,)), n) == expected
        assert grothendieck_setvalued_dominant(Partition((1,)), n) == expected

    def test_rows_beyond_n_error(self):
        with pytest.raises(ValueError):
            grothendieck_lenart_dominant(Partition((1, 1, 1)), 2)
        with pytest.raises(ValueError):
            grothendieck_setvalued_dominant(Partition((1, 1, 1)), 2)

    def test_cross_oracle_reports_a_disagreement(self, monkeypatch):
        lam = Partition((2, 1))
        terms = dict(grothendieck_setvalued_dominant(lam, 3))
        terms[(1, 1, 1)] += 1
        monkeypatch.setattr(
            grothendieck, "grothendieck_setvalued_dominant", lambda lam, n: terms
        )
        record = battery.run_check("cross-oracle", lam, 3)
        assert record == {
            "name": "cross-oracle",
            "ok": False,
            "detail": "tableau models disagree",
        }

    @pytest.mark.parametrize(
        "lenart, setvalued",
        [
            (branching.gelfand_tsetlin_contents, branching.set_valued_dominant_contents),
            (grothendieck_lenart_dominant, grothendieck_setvalued_dominant),
        ],
        ids=["kernels", "models"],
    )
    def test_the_two_sides_share_no_helper(self, lenart, setvalued):
        # The cross-oracle check is only as independent as the two sides.
        assert not grothsnp_functions(lenart) & grothsnp_functions(setvalued)

    def test_the_helper_walk_sees_through_memos_and_calls(self):
        assert grothsnp_functions(grothendieck_lenart_dominant) >= {
            schur_expansion,
            branching.gelfand_tsetlin_contents,
            branching.lenart_shape_counts,
        }


def grothsnp_functions(fn) -> set:
    """The functions of grothsnp that fn reaches by a global name, in its own
    code or nested code, and then in theirs; memos are unwrapped. Classes
    such as Partition are left out."""
    found: set = set()
    pending = [fn]
    while pending:
        func = inspect.unwrap(pending.pop())
        codes = [func.__code__]
        while codes:
            code = codes.pop()
            codes.extend(c for c in code.co_consts if isinstance(c, types.CodeType))
            for name in code.co_names:
                value = func.__globals__.get(name)
                if (
                    callable(value)
                    and not isinstance(value, type)
                    and getattr(value, "__module__", "").startswith("grothsnp.")
                    and value not in found
                ):
                    found.add(value)
                    pending.append(value)
    return found


def scan_chain(lam, n):
    """The greedy chain by its definition, the reference for mu_chain's
    closed form: each box goes to the northmost row in 1..n that qualifies,
    found by a scan over all rows."""
    mus = [lam]
    rows = []
    while True:
        current = mus[-1]
        step_row = next(
            (
                r
                for r in range(1, n + 1)
                if current.part(r) - lam.part(r) < r - 1 and current.can_add_box(r)
            ),
            None,
        )
        if step_row is None:
            return tuple(mus), tuple(rows)
        mus.append(current.add_box(step_row))
        rows.append(step_row)


class TestClosedFormChain:
    def test_matches_the_scan_on_the_five_by_five_box(self):
        pairs = [
            (lam, n)
            for lam in partitions_in_box(5, 5)
            for n in range(max(1, len(lam)), 9)
        ]
        assert len(pairs) == 1217
        for lam, n in pairs:
            chain = mu_chain(lam, n)
            assert (chain.mus, chain.rows) == scan_chain(lam, n), (lam, n)

    def test_matches_the_scan_on_a_staircase(self):
        lam = Partition((6, 5, 4, 3, 2, 1))
        chain = mu_chain(lam, 12)
        assert (chain.mus, chain.rows) == scan_chain(lam, 12)
        # rows 2..7 fill to 6 and rows 8..12 take six boxes each
        assert chain.mus[-1] == Partition((6,) * 12)
        assert chain.length == 51

    def test_a_column_of_a_thousand_rows(self):
        chain = mu_chain(Partition((1,)), 1000)
        assert chain.rows == tuple(range(2, 1001))
        assert chain.mus[-1] == Partition((1,) * 1000)


class TestMuChain:
    def test_displayed_chain(self):
        chain = mu_chain(LAM310, 3)
        assert [m.parts for m in chain.mus] == [(3, 1), (3, 2), (3, 2, 1), (3, 2, 2)]
        assert chain.rows == (2, 3, 3)
        assert chain.length == 3
        assert chain.extra_boxes() == (0, 1, 2)

    def test_empty_shape_has_no_steps(self):
        chain = mu_chain(Partition(()), 2)
        assert len(chain.mus) == 1
        assert chain.rows == ()

    def test_single_box(self):
        chain = mu_chain(Partition((1,)), 2)
        assert [m.parts for m in chain.mus] == [(1,), (1, 1)]

    def test_four_row_chain_outruns_n(self):
        chain = mu_chain(Partition((4, 2, 1)), 4)
        assert chain.mus[-1] == Partition((4, 3, 3, 3))
        assert chain.rows == (2, 3, 3, 4, 4, 4)
        assert chain.length == 6

    def test_receiving_rows_weakly_increase(self):
        for lam in partitions_in_box(4, 4):
            for n in range(max(1, len(lam)), 5):
                rows = mu_chain(lam, n).rows
                assert all(a <= b for a, b in zip(rows, rows[1:]))

    def test_termination_is_maximal(self):
        for lam in partitions_in_box(3, 3):
            for n in range(max(1, len(lam)), 5):
                chain = mu_chain(lam, n)
                last = chain.mus[-1]
                assert 1 not in chain.rows
                for r in range(1, n + 1):
                    full = last.part(r) - lam.part(r) == r - 1
                    blocked = not last.can_add_box(r)
                    assert full or blocked

    def test_top_degree_matches_the_chain(self):
        for lam in partitions_in_box(3, 3):
            for n in range(max(1, len(lam)), 4):
                g = grothendieck_lenart(lam, n)
                assert g.max_degree() == lam.size() + mu_chain(lam, n).length

    def test_json_pads_to_n(self):
        chain = mu_chain(LAM310, 3)
        assert [list(mu.padded(chain.n)) for mu in chain.mus] == [
            [3, 1, 0],
            [3, 2, 0],
            [3, 2, 1],
            [3, 2, 2],
        ]
        assert list(chain.rows) == [2, 3, 3]

    def test_rows_beyond_n_error(self):
        with pytest.raises(ValueError):
            mu_chain(Partition((1, 1, 1)), 2)

    def test_invariants_reject_bad_chains(self):
        lam = Partition((3, 1))
        good = mu_chain(lam, 3)
        with pytest.raises(ValueError):
            MuChain(lam=lam, n=3, mus=good.mus[:-1], rows=good.rows)
        with pytest.raises(ValueError):
            MuChain(lam=lam, n=3, mus=good.mus[:-1], rows=good.rows[:-1])
        shuffled = (good.mus[0], Partition((3, 1, 1))) + good.mus[2:]
        with pytest.raises(ValueError):
            MuChain(lam=lam, n=3, mus=shuffled, rows=(3,) + good.rows[1:])


class TestClaimA:
    def test_displayed_case(self):
        assert check_claim_a(LAM310, 3)

    def test_degree_five_shapes_are_dominated(self):
        chain = mu_chain(LAM310, 3)
        for mu, _ in schur_expansion(LAM310, 3).terms:
            if mu.size() == 5:
                assert majorizes(chain.mus[1].parts, mu.parts)

    def test_empty_shape(self):
        assert check_claim_a(Partition(()), 3)

    def test_four_row_case(self):
        assert check_claim_a(Partition((4, 2, 1)), 4)

    # Each failure planted in the expansion of (3,1) at n = 3, whose chain is
    # (3,1) -> (3,2) -> (3,2,1) -> (3,2,2).

    def test_a_shape_beyond_the_top_degree(self, monkeypatch):
        _plant_expansion(monkeypatch, ((4, 2, 2), -1))
        assert check_claim_a(LAM310, 3).detail == (
            "coefficient at (4, 2, 2) beyond top degree"
        )

    def test_a_shape_not_dominated_by_the_chain(self, monkeypatch):
        _plant_expansion(monkeypatch, ((4, 1), -1))
        assert check_claim_a(LAM310, 3).detail == (
            "(4, 1) not dominated by (3, 2) at k=1"
        )

    def test_a_chain_shape_left_out(self, monkeypatch):
        _plant_expansion(monkeypatch, drop=Partition((3, 2, 2)))
        assert check_claim_a(LAM310, 3).detail == (
            "chain shape (3, 2, 2) missing at k=3"
        )

    def test_a_chain_shape_stored_with_coefficient_zero(self, monkeypatch):
        _plant_expansion(monkeypatch, ((3, 2, 1), 0), drop=Partition((3, 2, 1)))
        assert check_claim_a(LAM310, 3).detail == (
            "chain shape (3, 2, 1) missing at k=2"
        )


def _plant_expansion(monkeypatch, *extra, drop=None):
    """Make check_claim_a read the expansion of (3,1) at n = 3 without the
    term at drop and with the (parts, coeff) terms extra appended, built
    without the checks of SchurExpansion, which would refuse it."""
    terms = tuple(
        (mu, coeff) for mu, coeff in schur_expansion(LAM310, 3).terms if mu != drop
    )
    terms += tuple((Partition(parts), coeff) for parts, coeff in extra)
    planted = object.__new__(SchurExpansion)
    for name, value in (("lam", LAM310), ("n", 3), ("terms", terms)):
        object.__setattr__(planted, name, value)
    monkeypatch.setattr(grothendieck, "schur_expansion", lambda lam, n: planted)


class TestClaimB:
    def test_seeded_trials(self):
        assert check_claim_b(mu_chain(LAM310, 3))
        assert check_claim_b(mu_chain(Partition((4, 2, 1)), 4))

    @pytest.mark.parametrize("parts,n", DIFFERENTIAL_CASES)
    def test_fraction_trials_are_majorized(self, parts, n):
        # the Fraction sampler that the exact check replaced, in integers:
        # mixes of shuffled chain shapes stay within the matching mix of the
        # shapes, both scaled by the same total
        chain = mu_chain(Partition(parts), n)
        padded = [mu.padded(n) for mu in chain.mus]
        rng = random.Random(5)
        for _ in range(150):
            point, shape = _reference_claim_b_trial(rng, padded)
            assert majorizes(shape, point)
        assert check_claim_b(chain)

    def test_unit_weight_reduces_to_single_polytope(self):
        chain = mu_chain(LAM310, 3)
        padded = [m.padded(3) for m in chain.mus]
        rng = random.Random(3)
        for k, w in enumerate(padded):
            perm = list(w)
            rng.shuffle(perm)
            assert majorizes(w, tuple(perm))

    def test_mix_of_vertices_is_reflexive(self):
        chain = mu_chain(LAM310, 3)
        padded = [m.padded(3) for m in chain.mus]
        mixed = convex_combination((1,) * len(padded), padded)
        assert majorizes(mixed, mixed)


class TestClaimC:
    def test_seeded_trials(self):
        assert check_claim_c(mu_chain(LAM310, 3))
        assert check_claim_c(mu_chain(Partition((4, 2, 1)), 4))

    def test_half_half_weights_give_the_middle_shape(self):
        chain = mu_chain(LAM310, 3)
        padded = [m.padded(3) for m in chain.mus]
        mixed = convex_combination((1, 0, 1, 0), padded)
        assert majorizes([2 * x for x in padded[1]], mixed)

    def test_weight_sampler_hits_integer_moments(self):
        # the Fraction reference sampler that the vertex check replaced, in
        # integers: weights over their total with moment K times that total
        rng = random.Random(99)
        for _ in range(300):
            weights, target = _reference_integer_moment(rng, 5)
            assert sum(weights) > 0
            assert all(w >= 0 for w in weights)
            moment = sum(k * w for k, w in enumerate(weights))
            assert moment == target * sum(weights)
            assert 0 <= target <= 5

    @pytest.mark.parametrize("top", range(7))
    def test_enumerated_points_are_the_vertices(self, top):
        """Brute force over the basic solutions of the two equality rows: a
        vertex of Q_K has at most two nonzero coordinates, found by solving
        sum c = 1, sum k c_k = K on one index or a pair of them."""
        for surplus in range(top + 1):
            basic = {(tuple(int(k == surplus) for k in range(top + 1)), 1)}
            for i in range(top + 1):
                for j in range(i + 1, top + 1):
                    # c_j = (K - i)/(j - i) and c_i = 1 - c_j, both in [0, 1]
                    if i <= surplus <= j:
                        c = [0] * (top + 1)
                        c[i], c[j] = j - surplus, surplus - i
                        basic.add(_reduced(c, j - i))
            assert {_reduced(c, d) for c, d in _vertex_weights(top, surplus)} == basic

    @pytest.mark.parametrize("top", range(7))
    def test_vertices_certify_every_drawn_weight(self, top):
        """Every enumerated point lies in Q_K, and every weight vector drawn by
        the Fraction reference sampler is a convex mix of its Q_K's points."""
        vertices = {}
        for surplus in range(top + 1):
            vertices[surplus] = _vertex_weights(top, surplus)
            for c, d in vertices[surplus]:
                assert min(c) >= 0 and sum(c) == d
                assert sum(k * x for k, x in enumerate(c)) == surplus * d
        rng = random.Random(top)
        for _ in range(60):
            weights, surplus = _reference_integer_moment(rng, top)
            # The simplex takes one denominator: scale every row to it.
            rows = [*vertices[surplus], (weights, sum(weights))]
            scale = lcm(*(d for _, d in rows))
            *points, target = [[x * (scale // d) for x in c] for c, d in rows]
            assert convex_certificate(points, target) is not None


def _vertex_weights(top, surplus):
    """The points of _moment_vertices as weight vectors (numerators, a + b)."""
    points = []
    for i, j, a, b in _moment_vertices(top, surplus):
        c = [0] * (top + 1)
        c[i] += a
        c[j] += b
        points.append((tuple(c), a + b))
    return points


def _reduced(numerators, denominator):
    """The weight vector numerators/denominator in lowest terms."""
    g = gcd(denominator, *numerators)
    return tuple(x // g for x in numerators), denominator // g


# References for the claims. The full vertex scan of claim c, which the
# adjacent-vertex check replaced, decides the same verdicts on every chain.
# The Fraction samplers, whose seeded trials the exact checks replaced, stay
# as property tests in integers, each weight vector as numerators over their
# total: their claim-b trials must be majorized, and their claim-c weights
# must be covered by the vertices.


def _moment_vertices(top, surplus):
    """The vertices of Q_K = {c >= 0, sum c = 1, sum k*c_k = K} on indices
    0..top, K = surplus, each as (i, j, a, b) for c = (a*e_i + b*e_j)/(a + b).

    Two equality rows leave at most two nonzero coordinates at a vertex: e_K
    itself, as (K, K, 1, 0), and for i < K < j the mix of e_i and e_j with
    a = j - K and b = K - i, whose moment is K.
    """
    yield surplus, surplus, 1, 0
    for i in range(surplus):
        for j in range(surplus + 1, top + 1):
            yield i, j, j - surplus, surplus - i


def _full_scan_claim_c(chain):
    """Whether every vertex of every Q_K keeps its mix majorized by the K-th
    chain shape, in integers scaled by the vertex's denominator."""
    padded = [mu.padded(chain.n) for mu in chain.mus]
    return all(
        majorizes(
            [(a + b) * x for x in padded[surplus]],
            convex_combination((a, b), (padded[i], padded[j])),
        )
        for surplus in range(chain.length + 1)
        for i, j, a, b in _moment_vertices(chain.length, surplus)
    )


def _reference_weights(rng, count):
    """Random nonnegative integer weights with a positive total."""
    scale = max(1, 10**4 // max(count, 1))
    raws = [rng.randint(0, scale) for _ in range(count)]
    if sum(raws) == 0:
        raws[rng.randrange(count)] = 1
    return tuple(raws)


def _reference_claim_b_trial(rng, padded):
    """A mix of points of the chain's permutahedra, each point a mix of
    rearrangements of its shape, and the same mix of the shapes, both scaled
    to integers by the product of the outer and the inner totals."""
    points, totals = [], []
    for w in padded:
        spots = []
        for _ in range(rng.randint(1, 3)):
            shuffled = list(w)
            rng.shuffle(shuffled)
            spots.append(tuple(shuffled))
        inner = _reference_weights(rng, len(spots))
        points.append(convex_combination(inner, spots))
        totals.append(sum(inner))
    weights = _reference_weights(rng, len(padded))
    # Point k is scaled by its own total; bring each to the product of them.
    common = prod(totals)
    rescaled = [[common // d * x for x in point] for point, d in zip(points, totals)]
    shape = convex_combination(weights, padded)
    return convex_combination(weights, rescaled), [common * x for x in shape]


def _reference_integer_moment(rng, top):
    """Drawn weights moved to an integer moment K, sum k*c_k = K*sum c, by
    shifting weight from the top indices to index 0. The weights are scaled
    by lcm(1..top), so each shift, an excess over its index, is an integer."""
    if top == 0:
        return (1,), 0
    scale = lcm(*range(1, top + 1))
    c = [scale * x for x in _reference_weights(rng, top + 1)]
    total = sum(c)
    moment = sum(k * c[k] for k in range(top + 1))
    target = moment // total
    excess = moment - target * total
    j = top
    while excess > 0:
        while c[j] == 0:
            j -= 1
        shift = min(c[j], excess // j)
        c[j] -= shift
        c[0] += shift
        excess -= shift * j
    return tuple(c), target


def _reference_claim_c(chain, trials, seed):
    """Whether every sampled mix with integer surplus K is majorized by the
    K-th chain shape, both scaled by the weights' total."""
    padded = [mu.padded(chain.n) for mu in chain.mus]
    rng = random.Random(seed)
    for _ in range(trials):
        weights, surplus = _reference_integer_moment(rng, chain.length)
        shape = [sum(weights) * x for x in padded[surplus]]
        if not majorizes(shape, convex_combination(weights, padded)):
            return False
    return True


def _planted(chain, k, parts):
    """The chain with shape k replaced by Partition(parts), built without the
    checks of MuChain, which would refuse it."""
    planted = object.__new__(MuChain)
    mus = chain.mus[:k] + (Partition(parts),) + chain.mus[k + 1 :]
    for name, value in (("lam", chain.lam), ("n", chain.n), ("mus", mus), ("rows", chain.rows)):
        object.__setattr__(planted, name, value)
    return planted


def _box_moved_to_row_one(chain, k, row):
    """_planted with one box of shape k moved from row to row 1, or None
    where that box is not a corner."""
    parts = list(chain.mus[k].padded(chain.n)) + [0]
    if parts[row - 1] <= parts[row]:
        return None
    parts[row - 1] -= 1
    parts[0] += 1
    return _planted(chain, k, tuple(parts))


class TestIntegerPath:
    @pytest.mark.parametrize("parts,n", DIFFERENTIAL_CASES)
    def test_claim_c_weights_and_mixes_equal_the_fraction_ones(self, parts, n):
        # each vertex's mix of two shapes over a + b is the mix of all the
        # shapes by its weight vector over a + b, and is majorized by the K-th
        # shape scaled by a + b
        padded = [mu.padded(n) for mu in mu_chain(Partition(parts), n).mus]
        top = len(padded) - 1
        for surplus in range(top + 1):
            vertices = _moment_vertices(top, surplus)
            for (i, j, a, b), (weights, d) in zip(vertices, _vertex_weights(top, surplus)):
                mixed = convex_combination((a, b), (padded[i], padded[j]))
                assert mixed == convex_combination(weights, padded)
                assert majorizes([d * x for x in padded[surplus]], mixed)

    def test_failure_details_print_integers(self, monkeypatch):
        # Claim b names the shape and its reversal; claim c prints its doubled
        # mix over the denominator 2.
        monkeypatch.setattr(grothendieck, "majorizes", lambda mu, v: False)
        chain = mu_chain(LAM310, 3)
        assert check_claim_b(chain).detail == (
            "k=0: rearrangement (0, 1, 3) escapes shape (3, 1, 0)"
        )
        assert check_claim_c(chain).detail == (
            "vertex K=1, i=0, j=2: mix (6, 3, 1)/2 escapes chain shape at K=1"
        )

    def test_claim_c_failure_names_its_vertex(self):
        # (3,2,1) with its row-3 box moved to row 1: the half-half mix of
        # (3,1) and (4,2) escapes (3,2)
        chain = _box_moved_to_row_one(mu_chain(LAM310, 3), 2, 3)
        assert check_claim_c(chain).detail == (
            "vertex K=1, i=0, j=2: mix (7, 3, 0)/2 escapes chain shape at K=1"
        )


def _reference_first_identity(chain, weights):
    """Whether the mix of the chain shapes with integer weights c of total d
    has prefix sum d*base + sum_k min(k, l)*c_k at every row, the identity
    scaled by d, by convex_combination."""
    mixed = convex_combination(weights, [mu.padded(chain.n) for mu in chain.mus])
    total = sum(weights)
    for r in range(1, chain.n + 1):
        last = max((i for i, row in enumerate(chain.rows, start=1) if row <= r), default=0)
        base_r = total * sum(chain.lam.parts[:r])
        closed = base_r + sum(min(k, last) * c for k, c in enumerate(weights))
        if sum(mixed[:r]) != closed:
            return False
    return True


class TestLemmaClosedForm:
    @pytest.mark.parametrize("parts,n", DIFFERENTIAL_CASES)
    def test_planted_wrong_mix(self, parts, n):
        # One box too many in row 1 of shape k breaks every mix through it.
        # The last shape also fixes the final surplus of the second identity,
        # which an earlier shape may then fail first.
        chain = mu_chain(Partition(parts), n)
        uniform = [1] * (chain.length + 1)
        assert _reference_first_identity(chain, uniform)
        for k, mu in enumerate(chain.mus):
            planted = _planted(chain, k, (mu.part(1) + 1, *mu.parts[1:]))
            res = check_lemmas_random(planted)
            assert not res.ok
            if k < chain.length:
                assert res.detail.startswith(f"first identity at k={k}, row 1: ")
            assert not _reference_first_identity(planted, uniform)


class TestLemmas:
    def test_unit_weight_on_the_base(self):
        chain = mu_chain(LAM310, 3)
        assert _reference_first_identity(chain, (1, 0, 0, 0))

    def test_uniform_weights(self):
        chain = mu_chain(LAM310, 3)
        assert _reference_first_identity(chain, (1,) * 4)

    def test_row_one_prefix_is_rigid(self):
        # every chain shape keeps the first row of the base shape
        chain = mu_chain(LAM310, 3)
        for mu in chain.mus:
            assert mu.part(1) == 3

    def test_seeded_random_weights(self):
        assert check_lemmas_random(mu_chain(Partition((4, 2, 1)), 4))

    def test_weights_over_different_denominators(self):
        chain = mu_chain(LAM310, 3)
        # (1/3, 1/4, 1/6, 1/4) over their common denominator 12
        weights = (4, 3, 2, 3)
        assert _reference_first_identity(chain, weights)

    def test_first_identity_failure_names_its_shape_and_row(self):
        chain = _box_moved_to_row_one(mu_chain(LAM310, 3), 2, 3)
        res = check_lemmas_random(chain)
        assert res.detail == "first identity at k=2, row 1: 4 != 3"

    def test_second_identity_failure_names_its_shape_and_row(self, monkeypatch):
        chain = mu_chain(LAM310, 4)
        monkeypatch.setattr(MuChain, "extra_boxes", lambda self: (0,) * self.n)
        res = check_lemmas_random(chain)
        assert res.detail == "second identity at k=2, row 2: 5 != 4"


def _planted_chains():
    """Each chain of a small box with one box of one shape moved to row 1,
    over every corner of every shape."""
    for lam in partitions_in_box(3, 3):
        for n in range(max(1, len(lam)), 6):
            chain = mu_chain(lam, n)
            for k in range(chain.length + 1):
                for row in range(2, n + 1):
                    planted = _box_moved_to_row_one(chain, k, row)
                    if planted is not None:
                        yield planted


class TestPlantedDefects:
    def test_vertex_check_fails_wherever_the_sampler_does(self):
        sampled = vertex = 0
        for chain in _planted_chains():
            caught = not check_claim_c(chain)
            if not _reference_claim_c(chain, 100, 3):
                assert caught, (chain.mus, chain.n)
                sampled += 1
            vertex += caught
        # 349 of the 393 planted chains; at 100 trials the sampler misses
        # none of the vertex check's either
        assert sampled == vertex == 349

    def test_adjacent_vertices_decide_what_the_full_scan_does(self):
        # every chain of the 3 x 3 box at n <= 5, and every planted chain
        chains = [
            mu_chain(lam, n)
            for lam in partitions_in_box(3, 3)
            for n in range(max(1, len(lam)), 6)
        ]
        planted = list(_planted_chains())
        assert (len(chains), len(planted)) == (74, 393)
        failing = 0
        for chain in chains + planted:
            verdict = check_claim_c(chain).ok
            assert verdict == _full_scan_claim_c(chain), (chain.mus, chain.n)
            failing += not verdict
        assert failing == 349

    def test_lemma_check_fails_on_every_planted_chain(self):
        planted = list(_planted_chains())
        assert len(planted) == 393
        for chain in planted:
            assert not check_lemmas_random(chain), (chain.mus, chain.n)


def _double_one_coefficient(terms):
    top = max(terms)
    return {**terms, top: 2 * terms[top]}


def _drop_one_term(terms):
    top = max(terms)
    return {exp: c for exp, c in terms.items() if exp != top}


def _drop_the_last(partitions):
    return list(partitions)[:-1]


def _drop_the_last_of_a_long_orbit(orbit):
    points = list(orbit)
    return points[:-1] if len(points) > 1 else points


def _one_count_off_by_one(terms):
    top = max(terms)
    return {**terms, top: terms[top] + 1}


def _lowest_corner_moved(k):
    """A defect of mu_chain: shape k with its lowest corner box moved to
    row 1 (_box_moved_to_row_one)."""

    def defect(chain):
        moved = (_box_moved_to_row_one(chain, k, row) for row in range(chain.n, 1, -1))
        return next(planted for planted in moved if planted is not None)

    return defect


def _drop_a_middle_degree_exponent(terms):
    degrees = sorted({sum(exp) for exp in terms})
    middle = degrees[len(degrees) // 2]
    hole = min(exp for exp in terms if sum(exp) == middle)
    return {exp: c for exp, c in terms.items() if exp != hole}


def _failing_checks() -> dict[int, dict[str, str]]:
    """The detail of each failing check of the battery, by n, on (3,2,1) at
    n = 3 and (4,2) at n = 4, each pair read afresh from the Lenart memo."""
    failing = {}
    for parts, n in (((3, 2, 1), 3), ((4, 2), 4)):
        grothendieck.grothendieck_lenart_dominant.cache_clear()
        records = battery.run_checks(Partition(parts), n)
        failing[n] = {r["name"]: r["detail"] for r in records if not r["ok"]}
    # The memo holds a result of the planted defect: the next test must not read it.
    grothendieck.grothendieck_lenart_dominant.cache_clear()
    return failing


class TestDefectMatrix:
    """Which checks of the battery fail for each planted defect. cross-oracle
    witnesses a coefficient or term of either model's dominant terms,
    component-snp a term of the Lenart side or a partition missing from a
    permutahedron, and brute-snp, at n <= 3 only, a hole in the full
    set-valued expansion, which no other check reads. brute-snp has two
    guards against that hole: the simplex puts it in the hull, and without
    the simplex the hull lattice points miss a point of a chain polytope.
    A wrong chain shape, planted at both lookups of mu_chain, fails every
    check that reads the chain; neither tableau model reads it, and claim b
    holds for any chain. At n >= 4 no check reads an orbit: a wrong one
    fails brute-snp alone, at n <= 3, and the tests against the full
    expansions pin the orbits that groth, newton and figure-data print.
    A majorizes or a hull oracle that always says true, and a wrong SSYT
    count, fail nothing: the first can only hide a failure, the filter
    sends no point of these cases to the simplex, and no check reads
    schur_polynomial."""

    @pytest.mark.parametrize(
        "modules, name, defect, at_n3, at_n4",
        [
            pytest.param((grothendieck,), "gelfand_tsetlin_contents", _double_one_coefficient,
                         {"cross-oracle"}, {"cross-oracle"}, id="gt-coefficient-wrong"),
            pytest.param((grothendieck,), "gelfand_tsetlin_contents", _drop_one_term,
                         {"cross-oracle", "component-snp"}, {"cross-oracle", "component-snp"},
                         id="gt-term-dropped"),
            pytest.param((grothendieck,), "set_valued_dominant_contents",
                         _double_one_coefficient, {"cross-oracle"}, {"cross-oracle"},
                         id="set-valued-coefficient-wrong"),
            pytest.param((grothendieck,), "set_valued_dominant_contents", _drop_one_term,
                         {"cross-oracle"}, {"cross-oracle"}, id="set-valued-term-dropped"),
            pytest.param((polytopes,), "dominated_partitions", _drop_the_last,
                         {"component-snp", "brute-snp"}, {"component-snp"},
                         id="dominated-partition-dropped"),
            pytest.param((tableaux,), "set_valued_contents", _drop_a_middle_degree_exponent,
                         {"brute-snp"}, set(), id="set-valued-hole"),
            pytest.param((polytopes,), "_orbit", _drop_the_last_of_a_long_orbit,
                         {"brute-snp"}, set(), id="orbit-point-dropped"),
            pytest.param((grothendieck, polytopes), "majorizes", lambda verdict: True,
                         set(), set(), id="majorizes-always-true"),
            pytest.param((polytopes,), "hull_membership", lambda verdict: True,
                         set(), set(), id="hull-oracle-always-inside"),
            pytest.param((tableaux,), "ssyt_contents", _one_count_off_by_one,
                         set(), set(), id="ssyt-count-off-by-one"),
        ]
        + [  # each shape of the (3,2,1)/3 chain, and the first four of (4,2)/4
            pytest.param((grothendieck, polytopes), "mu_chain", _lowest_corner_moved(k),
                         {"component-snp", "claim-a", "claim-c", "lemmas", "brute-snp"},
                         {"component-snp", "claim-a", "claim-c", "lemmas"},
                         id=f"chain-shape-{k}-wrong")
            for k in range(4)
        ],
    )
    def test_failing_checks(self, monkeypatch, modules, name, defect, at_n3, at_n4):
        original = getattr(modules[0], name)
        for module in modules:
            monkeypatch.setattr(module, name, lambda *args: defect(original(*args)))
        failing = {n: set(details) for n, details in _failing_checks().items()}
        assert failing == {3: at_n3, 4: at_n4}

    @pytest.mark.parametrize(
        "blind, detail",
        [
            pytest.param(False, "lattice point (2, 3, 3) lies in the hull but not the support",
                         id="simplex"),
            pytest.param(True, "hull lattice points differ from the chain polytopes",
                         id="chain-polytopes"),
        ],
    )
    def test_brute_snp_witnesses_a_set_valued_hole(self, monkeypatch, blind, detail):
        original = tableaux.set_valued_contents
        monkeypatch.setattr(
            tableaux,
            "set_valued_contents",
            lambda *args: _drop_a_middle_degree_exponent(original(*args)),
        )
        if blind:  # no box point outside the support joins the hull
            monkeypatch.setattr(polytopes, "hull_membership", lambda point, cloud: False)
        assert _failing_checks() == {3: {"brute-snp": detail}, 4: {}}


class TestCaching:
    def test_repeated_calls_return_identical_objects(self):
        assert schur_expansion(LAM310, 3) is schur_expansion(LAM310, 3)
        assert mu_chain(LAM310, 3) is mu_chain(LAM310, 3)

    def test_pair_keyed_memos_hold_one_pair(self):
        """The checks of a pair share its entries, and the memos keyed by
        (lambda, n) hold one pair at a time. No check reads schur_polynomial:
        brute-snp reads the set-valued expansion."""
        per_pair = {  # (hits, misses) in one battery
            "schur_expansion": (1, 1),
            "grothendieck_lenart_dominant": (1, 1),
            "mu_chain": (5, 1),
        }
        names = (*per_pair, "schur_polynomial")
        for name in names:
            getattr(grothendieck, name).cache_clear()
        for parts in ((2, 1), (2, 2)):
            before = {name: getattr(grothendieck, name).cache_info() for name in names}
            battery.run_checks(Partition(parts), 3)
            seen = {}
            for name in names:
                info = getattr(grothendieck, name).cache_info()
                seen[name] = (
                    info.hits - before[name].hits,
                    info.misses - before[name].misses,
                    info.currsize,
                )
            expected = {name: (*counts, 1) for name, counts in per_pair.items()}
            assert seen == {**expected, "schur_polynomial": (0, 0, 0)}, parts

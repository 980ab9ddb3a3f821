"""Grothendieck polynomials, the greedy chain, and the majorization checks."""

import random
from fractions import Fraction
from itertools import permutations

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
from grothsnp import battery, grothendieck
from grothsnp.grothendieck import (
    _claim_b_mix,
    _mix,
    _prefix_sum_checker,
    _weights_with_integer_moment,
    grothendieck_lenart_dominant,
    grothendieck_setvalued_dominant,
    lenart_coefficient,
)
from grothsnp.partitions import convex_combination, dominance_leq, majorizes

LAM310 = Partition((3, 1))


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

    def test_json_shape(self):
        assert schur_expansion(Partition((1,)), 2).to_json_dict() == {
            "lambda": [1],
            "n": 2,
            "terms": [
                {"mu": [1], "coeff": 1},
                {"mu": [1, 1], "coeff": -1},
            ],
        }

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
        assert grothendieck_lenart(LAM310, 3).is_symmetric()

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
        assert full.is_symmetric()
        restricted = {exp: c for exp, c in full.items() if weakly_decreasing(exp)}
        assert SparsePolynomial(n, restricted) == dominant
        assert orbit_expansion(dominant) == full


class TestDominantTerms:
    @pytest.mark.parametrize("parts, n", [((4, 2), 6), ((3, 2, 1), 6), ((4, 2, 1), 7)])
    def test_the_two_kernels_agree(self, parts, n):
        lam = Partition(parts)
        lenart = grothendieck_lenart_dominant(lam, n)
        assert lenart == grothendieck_setvalued_dominant(lam, n)
        assert all(weakly_decreasing(exp) for exp, _ in lenart.items())
        assert lenart.degrees()[-1] == lam.size() + mu_chain(lam, n).length

    def test_one_box_two_variables(self):
        expected = SparsePolynomial(2, {(1, 0): 1, (1, 1): -1})
        assert grothendieck_lenart_dominant(Partition((1,)), 2) == expected
        assert grothendieck_setvalued_dominant(Partition((1,)), 2) == expected

    def test_rows_beyond_n_error(self):
        with pytest.raises(ValueError):
            grothendieck_lenart_dominant(Partition((1, 1, 1)), 2)
        with pytest.raises(ValueError):
            grothendieck_setvalued_dominant(Partition((1, 1, 1)), 2)

    def test_cross_oracle_reports_a_disagreement(self, monkeypatch):
        lam = Partition((2, 1))
        terms = dict(grothendieck_setvalued_dominant(lam, 3).items())
        terms[(1, 1, 1)] += 1
        monkeypatch.setattr(
            battery,
            "grothendieck_setvalued_dominant",
            lambda lam, n: SparsePolynomial(n, terms),
        )
        record = battery.run_check(("cross-oracle", lam.parts, 3, 1, 0))
        assert record == {
            "name": "cross-oracle",
            "ok": False,
            "detail": "tableau models disagree",
        }


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
        assert mu_chain(LAM310, 3).to_json_dict() == {
            "mus": [[3, 1, 0], [3, 2, 0], [3, 2, 1], [3, 2, 2]],
            "rows": [2, 3, 3],
        }

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
                assert dominance_leq(mu, chain.mus[1])

    def test_empty_shape(self):
        assert check_claim_a(Partition(()), 3)

    def test_four_row_case(self):
        assert check_claim_a(Partition((4, 2, 1)), 4)


class TestClaimB:
    def test_seeded_trials(self):
        chain = mu_chain(LAM310, 3)
        assert check_claim_b(chain, 200, 11)

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
        weights = tuple(Fraction(1, len(padded)) for _ in padded)
        mixed = convex_combination(weights, padded)
        assert majorizes(mixed, mixed)


class TestClaimC:
    def test_seeded_trials(self):
        assert check_claim_c(mu_chain(LAM310, 3), 200, 13)
        assert check_claim_c(mu_chain(Partition((4, 2, 1)), 4), 200, 13)

    def test_half_half_weights_give_the_middle_shape(self):
        chain = mu_chain(LAM310, 3)
        padded = [m.padded(3) for m in chain.mus]
        mixed = convex_combination(
            (Fraction(1, 2), Fraction(0), Fraction(1, 2), Fraction(0)), padded
        )
        assert majorizes(padded[1], mixed)

    def test_weight_sampler_hits_integer_moments(self):
        rng = random.Random(99)
        for _ in range(300):
            numerators, denominator, target = _weights_with_integer_moment(rng, 5)
            weights = [Fraction(c, denominator) for c in numerators]
            assert sum(weights) == 1
            assert all(w >= 0 for w in weights)
            moment = sum(k * w for k, w in enumerate(weights))
            assert moment == target
            assert 0 <= target <= 5


# Fraction references for the randomized claims: each trial is computed with
# Fraction weights and convex_combination, drawing from a second generator
# with the same seed in the same order. The integer mixes divided by their
# denominator must equal these exactly, and the generators stay in lockstep.


def _reference_weights(rng, count):
    scale = max(1, 10**4 // max(count, 1))
    raws = [rng.randint(0, scale) for _ in range(count)]
    if sum(raws) == 0:
        raws[rng.randrange(count)] = 1
    total = sum(raws)
    return tuple(Fraction(a, total) for a in raws)


def _reference_claim_b_trial(rng, padded):
    points = []
    for w in padded:
        spots = []
        for _ in range(rng.randint(1, 3)):
            shuffled = list(w)
            rng.shuffle(shuffled)
            spots.append(tuple(shuffled))
        points.append(convex_combination(_reference_weights(rng, len(spots)), spots))
    weights = _reference_weights(rng, len(padded))
    return convex_combination(weights, points), convex_combination(weights, padded)


def _reference_integer_moment(rng, top):
    if top == 0:
        return (Fraction(1),), 0
    c = list(_reference_weights(rng, top + 1))
    moment = sum(k * c[k] for k in range(top + 1))
    target = int(moment)
    excess = moment - target
    j = top
    while excess > 0:
        while c[j] == 0:
            j -= 1
        shift = min(c[j], excess / j)
        c[j] -= shift
        c[0] += shift
        excess -= shift * j
    return tuple(c), target


def _scaled_down(numerators, denominator):
    return tuple(Fraction(x, denominator) for x in numerators)


DIFFERENTIAL_CASES = [((), 2), ((1,), 1), ((3, 1), 3), ((2, 2, 1), 5), ((4, 2, 1), 5)]


class TestIntegerPath:
    @pytest.mark.parametrize("parts,n", DIFFERENTIAL_CASES)
    def test_claim_b_mixes_equal_the_fraction_mixes(self, parts, n):
        padded = [mu.padded(n) for mu in mu_chain(Partition(parts), n).mus]
        rng, reference = random.Random(5), random.Random(5)
        for _ in range(150):
            point, shape, denominator = _claim_b_mix(rng, padded)
            ref_point, ref_shape = _reference_claim_b_trial(reference, padded)
            assert _scaled_down(point, denominator) == ref_point
            assert _scaled_down(shape, denominator) == ref_shape
            assert rng.getstate() == reference.getstate()

    @pytest.mark.parametrize("parts,n", DIFFERENTIAL_CASES)
    def test_claim_c_weights_and_mixes_equal_the_fraction_ones(self, parts, n):
        padded = [mu.padded(n) for mu in mu_chain(Partition(parts), n).mus]
        top = len(padded) - 1
        rng, reference = random.Random(7), random.Random(7)
        for _ in range(150):
            numerators, denominator, target = _weights_with_integer_moment(rng, top)
            ref_weights, ref_target = _reference_integer_moment(reference, top)
            assert _scaled_down(numerators, denominator) == ref_weights
            assert target == ref_target
            mixed = _scaled_down(_mix(numerators, padded), denominator)
            assert mixed == convex_combination(ref_weights, padded)
            assert rng.getstate() == reference.getstate()

    def test_failure_details_keep_the_fraction_format(self, monkeypatch):
        # Reference strings printed by the Fraction implementation.
        monkeypatch.setattr(grothendieck, "majorizes", lambda mu, v: False)
        chain = mu_chain(LAM310, 3)
        assert check_claim_b(chain, 5, 11).detail == (
            "trial 0: point (Fraction(2919656416, 1603118855), "
            "Fraction(9358268187, 3206237710), Fraction(4571741951, 3206237710)) "
            "escapes bound (Fraction(3, 1), Fraction(4073, 2158), Fraction(2759, 2158))"
        )
        assert check_claim_c(chain, 5, 11).detail == (
            "trial 0: mix (Fraction(3, 1), Fraction(38095, 23703), "
            "Fraction(9311, 23703)) escapes chain shape at K=1"
        )


class TestLemmas:
    def test_unit_weight_on_the_base(self):
        chain = mu_chain(LAM310, 3)
        assert _prefix_sum_checker(chain)((1, 0, 0, 0), 1)

    def test_uniform_weights(self):
        chain = mu_chain(LAM310, 3)
        assert _prefix_sum_checker(chain)((1, 1, 1, 1), 4)

    def test_row_one_prefix_is_rigid(self):
        # every chain shape keeps the first row of the base shape
        chain = mu_chain(LAM310, 3)
        for mu in chain.mus:
            assert mu.part(1) == 3

    def test_seeded_random_weights(self):
        assert check_lemmas_random(mu_chain(Partition((4, 2, 1)), 4), 200, 17)

    def test_weights_over_different_denominators(self):
        # 1/3, 1/4, 1/6, 1/4 over their common denominator 12
        chain = mu_chain(LAM310, 3)
        assert _prefix_sum_checker(chain)((4, 3, 2, 3), 12)

    def test_first_identity_failure_keeps_its_trial_and_text(self, monkeypatch):
        # Breaks the mix of the third trial only; the expected string was
        # printed by the implementation that rebuilt all chain data per trial.
        calls = [0]

        def bumped(numerators, vectors):
            calls[0] += 1
            mixed = _mix(numerators, vectors)
            if calls[0] == 3:
                mixed[1] += 1
            return mixed

        monkeypatch.setattr(grothendieck, "_mix", bumped)
        res = check_lemmas_random(mu_chain(LAM310, 4), 10, 5)
        assert res.detail == "trial 2: mixed prefix sum at row 2: 15781/3258 != 2630/543"

    def test_second_identity_failure_keeps_its_trial_and_text(self, monkeypatch):
        chain = mu_chain(LAM310, 4)
        monkeypatch.setattr(MuChain, "extra_boxes", lambda self: (0,) * self.n)
        res = check_lemmas_random(chain, 10, 5)
        assert res.detail == "trial 0: chain prefix sum at k=2, row 2: 5 != 4"


class TestCaching:
    def test_repeated_calls_return_identical_objects(self):
        assert schur_expansion(LAM310, 3) is schur_expansion(LAM310, 3)
        assert mu_chain(LAM310, 3) is mu_chain(LAM310, 3)
        assert grothendieck_lenart(LAM310, 3) is grothendieck_lenart(LAM310, 3)

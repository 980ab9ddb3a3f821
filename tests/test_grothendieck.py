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
from grothsnp.exactlp import convex_certificate
from grothsnp.grothendieck import (
    _claim_b_mix,
    _mix,
    _moment_vertices,
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
            grothendieck,
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
        # the Fraction reference sampler that the vertex check replaced
        rng = random.Random(99)
        for _ in range(300):
            weights, target = _reference_integer_moment(rng, 5)
            assert sum(weights) == 1
            assert all(w >= 0 for w in weights)
            moment = sum(k * w for k, w in enumerate(weights))
            assert moment == target
            assert 0 <= target <= 5

    @pytest.mark.parametrize("top", range(7))
    def test_enumerated_points_are_the_vertices(self, top):
        """Brute force over the basic solutions of the two equality rows: a
        vertex of Q_K has at most two nonzero coordinates, found by solving
        sum c = 1, sum k c_k = K on one index or a pair of them."""
        for surplus in range(top + 1):
            basic = {_unit_vector(top, surplus)}
            for i in range(top + 1):
                for j in range(i + 1, top + 1):
                    c_j = Fraction(surplus - i, j - i)
                    if 0 <= c_j <= 1:
                        c = list(_unit_vector(top, i))
                        c[i], c[j] = 1 - c_j, c_j
                        basic.add(tuple(c))
            assert set(_vertex_weights(top, surplus)) == basic

    @pytest.mark.parametrize("top", range(7))
    def test_vertices_certify_every_drawn_weight(self, top):
        """Every enumerated point lies in Q_K, and every weight vector drawn by
        the Fraction reference sampler is a convex mix of its Q_K's points."""
        vertices = {}
        for surplus in range(top + 1):
            vertices[surplus] = _vertex_weights(top, surplus)
            for c in vertices[surplus]:
                assert min(c) >= 0 and sum(c) == 1
                assert sum(k * x for k, x in enumerate(c)) == surplus
        rng = random.Random(top)
        for _ in range(60):
            weights, surplus = _reference_integer_moment(rng, top)
            assert convex_certificate(vertices[surplus], weights) is not None


def _unit_vector(top, k):
    return tuple(Fraction(int(i == k)) for i in range(top + 1))


def _vertex_weights(top, surplus):
    """The points of _moment_vertices as Fraction weight vectors."""
    points = []
    for i, j, a, b in _moment_vertices(top, surplus):
        c = [Fraction(0)] * (top + 1)
        c[i] += Fraction(a, a + b)
        c[j] += Fraction(b, a + b)
        points.append(tuple(c))
    return points


# Fraction references for the claims: each claim-b trial is computed with
# Fraction weights and convex_combination, drawing from a second generator
# with the same seed in the same order. The integer mixes divided by their
# denominator must equal these exactly, and the generators stay in lockstep.
# The claim-c sampler, whose seeded trials the exact vertex check replaced,
# stays here as the reference that the vertices must cover.


def _reference_numerators(rng, count):
    scale = max(1, 10**4 // max(count, 1))
    raws = [rng.randint(0, scale) for _ in range(count)]
    if sum(raws) == 0:
        raws[rng.randrange(count)] = 1
    return raws


def _reference_weights(rng, count):
    raws = _reference_numerators(rng, count)
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


def _reference_claim_c(chain, trials, seed):
    """Whether every sampled mix with integer surplus K is majorized by the
    K-th chain shape, in Fractions."""
    padded = [mu.padded(chain.n) for mu in chain.mus]
    rng = random.Random(seed)
    for _ in range(trials):
        weights, surplus = _reference_integer_moment(rng, chain.length)
        if not majorizes(padded[surplus], convex_combination(weights, padded)):
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


def _scaled_down(numerators, denominator):
    return tuple(Fraction(x, denominator) for x in numerators)


# n = 4 shuffles at bound 4, a power of two that rejects half of its draws;
# n = 6 brings bound 6.
DIFFERENTIAL_CASES = [
    ((), 2), ((1,), 1), ((3, 1), 3), ((2, 2, 1), 5), ((4, 2, 1), 5), ((3, 1), 4), ((1,), 6),
]


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
        # each vertex's integer mix over a + b is the Fraction mix of its
        # weights, and is majorized by the K-th shape in Fractions too
        padded = [mu.padded(n) for mu in mu_chain(Partition(parts), n).mus]
        top = len(padded) - 1
        for surplus in range(top + 1):
            vertices = _moment_vertices(top, surplus)
            for (i, j, a, b), weights in zip(vertices, _vertex_weights(top, surplus)):
                mixed = _scaled_down(_mix((a, b), (padded[i], padded[j])), a + b)
                assert mixed == convex_combination(weights, padded)
                assert majorizes(padded[surplus], mixed)

    def test_failure_details_keep_the_fraction_format(self, monkeypatch):
        # Reference string printed by the Fraction implementation.
        monkeypatch.setattr(grothendieck, "majorizes", lambda mu, v: False)
        chain = mu_chain(LAM310, 3)
        assert check_claim_b(chain, 5, 11).detail == (
            "trial 0: point (Fraction(2919656416, 1603118855), "
            "Fraction(9358268187, 3206237710), Fraction(4571741951, 3206237710)) "
            "escapes bound (Fraction(3, 1), Fraction(4073, 2158), Fraction(2759, 2158))"
        )

    def test_claim_c_failure_names_its_vertex(self):
        # (3,2,1) with its row-3 box moved to row 1: the half-half mix of
        # (3,1) and (4,2) escapes (3,2)
        chain = _box_moved_to_row_one(mu_chain(LAM310, 3), 2, 3)
        assert check_claim_c(chain, 5, 11).detail == (
            "vertex K=1, i=0, j=2: mix (Fraction(7, 2), Fraction(3, 2), "
            "Fraction(0, 1)) escapes chain shape at K=1"
        )


ALL_ONES = (1 << 32) - 1


def _forced_rejection_script(seed):
    """Raw getrandbits values: all ones, which every bound rejects, before each
    draw of a seeded stream that is zero half the time. Every draw site ends
    on an accepted stream value, so the next one starts with a rejection."""
    source = random.Random(seed)
    while True:
        yield ALL_ONES
        yield 0 if source.random() < 0.5 else source.getrandbits(32)


class ScriptedRandom(random.Random):
    """A generator whose getrandbits replays a script, masked to the bits asked
    for. It counts its draws and records each bound at which _randbelow, the
    sampler under randint, randrange and shuffle, had to redraw."""

    def __init__(self, script):
        super().__init__(0)
        self.script = script
        self.draws = 0
        self.rejected = set()

    def getrandbits(self, k):
        self.draws += 1
        return next(self.script) & ((1 << k) - 1)

    def _randbelow(self, n):
        before = self.draws
        r = self._randbelow_with_getrandbits(n)
        if self.draws - before > 1:
            self.rejected.add(n)
        return r


class TestStreamLockstep:
    @pytest.mark.parametrize("count", [1, 2, 3, 4, 6])
    def test_numerators_match_randint(self, count):
        rng = ScriptedRandom(_forced_rejection_script(count))
        reference = ScriptedRandom(_forced_rejection_script(count))
        for _ in range(200):
            raws = grothendieck._random_numerators(rng, count)
            assert raws == _reference_numerators(reference, count)
            assert rng.draws == reference.draws
        # randint(0, scale) draws below scale + 1; only the all-zero branch,
        # randrange(count), draws below count
        assert {10**4 // count + 1, count} <= reference.rejected

    @pytest.mark.parametrize("parts,n", DIFFERENTIAL_CASES)
    def test_claim_b_mix_matches_randint_and_shuffle(self, parts, n):
        padded = [mu.padded(n) for mu in mu_chain(Partition(parts), n).mus]
        rng = ScriptedRandom(_forced_rejection_script(n))
        reference = ScriptedRandom(_forced_rejection_script(n))
        for _ in range(60):
            point, shape, denominator = _claim_b_mix(rng, padded)
            ref_point, ref_shape = _reference_claim_b_trial(reference, padded)
            assert _scaled_down(point, denominator) == ref_point
            assert _scaled_down(shape, denominator) == ref_shape
            assert rng.draws == reference.draws
        # every shuffle bound, the spot count's bound 3, and the all-zero
        # branch of a one-spot mix (randrange(1)) redrew at least once
        assert {1, 3, *range(2, n + 1)} <= reference.rejected


def _reference_first_identity(chain, weights):
    """Whether the mix of the chain shapes with Fraction weights has prefix sum
    base + sum_k min(k, l)*c_k at every row, by convex_combination."""
    mixed = convex_combination(weights, [mu.padded(chain.n) for mu in chain.mus])
    for r in range(1, chain.n + 1):
        last = max((i for i, row in enumerate(chain.rows, start=1) if row <= r), default=0)
        closed = sum(chain.lam.parts[:r]) + sum(min(k, last) * c for k, c in enumerate(weights))
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
        uniform = [Fraction(1, chain.length + 1)] * (chain.length + 1)
        assert _reference_first_identity(chain, uniform)
        for k, mu in enumerate(chain.mus):
            planted = _planted(chain, k, (mu.part(1) + 1, *mu.parts[1:]))
            res = check_lemmas_random(planted, 1, 0)
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
        assert _reference_first_identity(chain, (Fraction(1, 4),) * 4)

    def test_row_one_prefix_is_rigid(self):
        # every chain shape keeps the first row of the base shape
        chain = mu_chain(LAM310, 3)
        for mu in chain.mus:
            assert mu.part(1) == 3

    def test_seeded_random_weights(self):
        assert check_lemmas_random(mu_chain(Partition((4, 2, 1)), 4), 200, 17)

    def test_weights_over_different_denominators(self):
        chain = mu_chain(LAM310, 3)
        weights = (Fraction(1, 3), Fraction(1, 4), Fraction(1, 6), Fraction(1, 4))
        assert _reference_first_identity(chain, weights)

    def test_first_identity_failure_names_its_shape_and_row(self):
        chain = _box_moved_to_row_one(mu_chain(LAM310, 3), 2, 3)
        res = check_lemmas_random(chain, 10, 5)
        assert res.detail == "first identity at k=2, row 1: 4 != 3"

    def test_second_identity_failure_names_its_shape_and_row(self, monkeypatch):
        chain = mu_chain(LAM310, 4)
        monkeypatch.setattr(MuChain, "extra_boxes", lambda self: (0,) * self.n)
        res = check_lemmas_random(chain, 10, 5)
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
            caught = not check_claim_c(chain, 1, 0)
            if not _reference_claim_c(chain, 100, 3):
                assert caught, (chain.mus, chain.n)
                sampled += 1
            vertex += caught
        # 349 of the 393 planted chains; at 100 trials the sampler misses
        # none of the vertex check's either
        assert sampled == vertex == 349

    def test_lemma_check_fails_on_every_planted_chain(self):
        planted = list(_planted_chains())
        assert len(planted) == 393
        for chain in planted:
            assert not check_lemmas_random(chain, 1, 0), (chain.mus, chain.n)


class TestCaching:
    def test_repeated_calls_return_identical_objects(self):
        assert schur_expansion(LAM310, 3) is schur_expansion(LAM310, 3)
        assert mu_chain(LAM310, 3) is mu_chain(LAM310, 3)
        assert grothendieck_lenart(LAM310, 3) is grothendieck_lenart(LAM310, 3)

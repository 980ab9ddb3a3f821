"""Permutahedra, hull membership, Rado containment, and saturation verdicts."""

import gc
import json
import tracemalloc
from fractions import Fraction
from itertools import accumulate, permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from grothsnp import (
    Partition,
    Permutahedron,
    PointCloud,
    SparsePolynomial,
    grothendieck_lenart,
    grothendieck_setvalued,
    hull_membership,
    mu_chain,
    partitions_in_box,
    partitions_of_size,
    permutahedron_lattice_points,
    permutahedron_vertices,
    rado_contains,
    schur_polynomial,
    snp_check_bruteforce,
    snp_check_symmetric_fast,
)
from grothsnp import cli, exactlp, polytopes
from grothsnp.grothendieck import grothendieck_lenart_dominant
from grothsnp.partitions import dominated_partitions, majorizes


def perm_of(parts, n):
    return Permutahedron.of_partition(Partition(parts), n)


def lattice_points_by_sweep(weight):
    """Reference: sweep every composition of the weight's total with parts at
    most its largest part, keeping those the weight majorizes."""
    n = len(weight)
    total = sum(weight)
    cap = weight[0] if n else 0
    out = set()

    def sweep(i, remaining, prefix):
        if i == n:
            if remaining == 0 and majorizes(weight, prefix):
                out.add(prefix)
            return
        tail = n - i - 1
        lo = max(0, remaining - cap * tail)
        for x in range(lo, min(cap, remaining) + 1):
            sweep(i + 1, remaining - x, prefix + (x,))

    sweep(0, total, ())
    return out


@given(
    st.lists(st.integers(min_value=0, max_value=4), max_size=7).map(
        lambda parts: tuple(sorted(parts, reverse=True))
    )
)
@example((4, 4, 2, 2, 0, 0, 0))
@example((1, 1, 1, 1, 1, 1, 1))
@example(())
@settings(max_examples=200, derandomize=True, deadline=None)
def test_orbits_match_the_references(weight):
    """Lattice points as orbits of dominated partitions equal the composition
    sweep with `majorizes`; vertices as the orbit of the weight equal the set
    of all its orderings. Weights repeat parts and end in zeros."""
    perm = Permutahedron(weight)
    assert permutahedron_lattice_points(perm) == lattice_points_by_sweep(weight)
    assert permutahedron_vertices(perm) == set(permutations(weight))


def dominated_by_filter(weight, n):
    """The generate-and-filter route the padded walk replaced: every
    partition of the size in n rows with no part over the weight's first,
    kept if the weight dominates it."""
    lam = Partition(weight)
    return {
        nu.padded(n)
        for nu in partitions_of_size(lam.size(), n, lam.part(1))
        if majorizes(lam.parts, nu.parts)
    }


@pytest.mark.parametrize("size", range(12))
def test_dominated_walk_matches_the_filter(size):
    """All weights of the size, padded to n <= 6 coordinates."""
    for weight in partitions_of_size(size, size, size):
        for n in range(max(1, len(weight)), 7):
            perm = Permutahedron.of_partition(weight, n)
            walked = set(dominated_partitions(perm.weight))
            assert walked == dominated_by_filter(perm.weight, n)


class TestOrders:
    """The two orders that a merge of orbits into sorted lattice points
    relies on, on every weight of the 4 x 4 box padded to n <= 6."""

    WEIGHTS = [
        lam.padded(n) for lam in partitions_in_box(4, 4) for n in range(max(1, len(lam)), 7)
    ]

    def test_orbit_lists_each_rearrangement_once_in_increasing_order(self):
        assert len(self.WEIGHTS) == 265
        for weight in self.WEIGHTS:
            assert list(polytopes._orbit(weight)) == sorted(set(permutations(weight)))

    def test_walk_yields_strictly_decreasing_tuples_of_the_weight_length(self):
        for weight in self.WEIGHTS:
            walked = list(dominated_partitions(weight))
            assert all(len(nu) == len(weight) for nu in walked), weight
            assert all(a > b for a, b in zip(walked, walked[1:])), weight


class TestPermutahedron:
    def test_vertex_counts(self):
        assert len(permutahedron_vertices(perm_of((2, 1, 0), 3))) == 6
        assert len(permutahedron_vertices(perm_of((1, 1, 0), 3))) == 3
        assert len(permutahedron_vertices(perm_of((1, 1, 1), 3))) == 1

    def test_lattice_points_examples(self):
        points = permutahedron_lattice_points(perm_of((2, 1, 0), 3))
        assert len(points) == 7
        assert points == set(permutations((2, 1, 0))) | {(1, 1, 1)}
        assert permutahedron_lattice_points(perm_of((1, 0), 2)) == {(1, 0), (0, 1)}
        assert permutahedron_lattice_points(perm_of((3, 2, 2), 3)) == set(
            permutations((3, 2, 2))
        )

    def test_lattice_points_are_permutation_closed(self):
        for parts in [(3, 1), (2, 2, 1), (4, 2)]:
            for n in range(len(parts), 4):
                points = permutahedron_lattice_points(perm_of(parts, n))
                for pt in points:
                    assert set(permutations(pt)) <= points

    def test_the_weight_is_the_only_field(self):
        # the dimension is the weight's length, so there is no n to disagree
        assert Permutahedron.__slots__ == ("weight",)
        assert perm_of((2, 1), 4) == Permutahedron((2, 1, 0, 0))

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Permutahedron(weight=(1, 2))
        with pytest.raises(ValueError):
            Permutahedron(weight=(2, -1))

    @pytest.mark.parametrize(
        "weight",
        [(2.5, 0.5), (2.0, 1), (Fraction(2), 1), ("2", 1)],
        ids=["float", "integral-float", "Fraction", "str"],
    )
    def test_non_integer_weight_is_refused(self, weight):
        # no truncation of (2.5, 0.5), and no weight that only equals (2, 1)
        with pytest.raises(TypeError):
            Permutahedron(weight=weight)


class TestHullMembership:
    def test_cloud_point(self):
        cloud = PointCloud(2, frozenset({(2, 0), (0, 2)}))
        assert hull_membership((2, 0), cloud)

    def test_midpoint_and_outside(self):
        cloud = PointCloud(2, frozenset({(2, 0), (0, 2)}))
        assert hull_membership((1, 1), cloud)
        assert not hull_membership((2, 2), cloud)

    def test_empty_cloud_is_an_error(self):
        with pytest.raises(ValueError):
            hull_membership((0, 0), PointCloud(2, frozenset()))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hull_membership((1, 1, 1), PointCloud(2, frozenset({(0, 0)})))
        with pytest.raises(ValueError):
            PointCloud(2, frozenset({(1, 2, 3)}))

    @pytest.mark.parametrize("point", [(2.0, 0), (Fraction(1, 2), 0)], ids=["float", "Fraction"])
    def test_non_integer_cloud_point_is_refused(self, point):
        with pytest.raises(TypeError):
            PointCloud(2, frozenset({(0, 2), point}))

    def test_full_scale_lattice_hull_consistency(self):
        """The majorization description of integer points agrees with the
        geometric oracle over the whole bounding box, sizes up to 7, n up to 4.
        """
        for size in range(0, 8):
            for delta in partitions_of_size(size, 4, size or 1):
                for n in range(max(1, len(delta)), 5):
                    perm = Permutahedron.of_partition(delta, n)
                    cloud = PointCloud(n, frozenset(permutahedron_vertices(perm)))
                    lattice = permutahedron_lattice_points(perm)
                    hi = delta.part(1)
                    box = product(*(range(hi + 1) for _ in range(n)))
                    via_hull = {q for q in box if hull_membership(q, cloud)}
                    assert via_hull == lattice, (delta.parts, n)


class TestRado:
    def test_spec_examples(self):
        assert rado_contains(Partition((1, 1)), Partition((2,)))
        assert not rado_contains(Partition((2,)), Partition((1, 1)))
        assert rado_contains(Partition((3, 1, 1)), Partition((3, 2)))

    def test_size_mismatch_is_an_error(self):
        with pytest.raises(ValueError, match="majorization undefined across unequal sums"):
            rado_contains(Partition((2,)), Partition((2, 1)))

    def test_extensional_equivalence_small(self):
        """Dominance, lattice-point containment, and vertex hull membership
        decide the same relation (sizes up to 5, n up to 3 here; the full
        range runs in the acceptance battery).
        """
        for size in range(0, 6):
            shapes = list(partitions_of_size(size, 3, size or 1))
            for n in range(1, 4):
                usable = [p for p in shapes if len(p) <= n]
                data = {
                    p.parts: (
                        permutahedron_lattice_points(Permutahedron.of_partition(p, n)),
                        permutahedron_vertices(Permutahedron.of_partition(p, n)),
                    )
                    for p in usable
                }
                for theta in usable:
                    for delta in usable:
                        dom = rado_contains(theta, delta)
                        sub = data[theta.parts][0] <= data[delta.parts][0]
                        cloud = PointCloud(n, frozenset(data[delta.parts][1]))
                        hull = all(
                            hull_membership(v, cloud) for v in data[theta.parts][1]
                        )
                        assert dom == sub == hull, (theta.parts, delta.parts, n)


class TestBruteForce:
    def test_simplex_is_saturated(self):
        verdict = snp_check_bruteforce(SparsePolynomial(2, {(1, 0): 1, (0, 1): 1}))
        assert verdict.is_snp
        assert verdict.violation is None
        assert verdict.hull_lattice_points == frozenset({(1, 0), (0, 1)})

    def test_missing_middle_monomial(self):
        verdict = snp_check_bruteforce(SparsePolynomial(2, {(2, 0): 1, (0, 2): 1}))
        assert not verdict.is_snp
        assert verdict.violation == (1, 1)

    def test_zero_polynomial_is_an_error(self):
        with pytest.raises(ValueError):
            snp_check_bruteforce(SparsePolynomial(2, {}))

    def test_displayed_grothendieck_case(self):
        verdict = snp_check_bruteforce(grothendieck_lenart(Partition((3, 1)), 3))
        assert verdict.is_snp
        assert len(verdict.hull_lattice_points) == 34

    def test_constant_polynomial(self):
        verdict = snp_check_bruteforce(SparsePolynomial(2, {(0, 0): 1}))
        assert verdict.is_snp
        assert verdict.hull_lattice_points == frozenset({(0, 0)})

    def test_the_sums_are_folded_in_blocks(self):
        # Holding the 2^(n+1) sums of all 9,328 support points of (4,2,1) in
        # 6 variables at once peaks at 21 MiB; folded 64 points at a time,
        # the sweep peaks at 2.4 MiB on Python 3.11.
        f = grothendieck_setvalued(Partition((4, 2, 1)), 6)
        gc.collect()
        tracemalloc.start()
        try:
            verdict = snp_check_bruteforce(f)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert verdict.is_snp
        assert peak < 8 * (1 << 20)


def sweep_n3_pairs():
    """The (lambda, n) pairs of the benchmark's desk sweep: every partition
    in a 3 x 3 box, for n = 2 and 3."""
    return [
        (lam, n) for n in (2, 3) for lam in partitions_in_box(3, 3) if len(lam) <= n
    ]


def reference_bruteforce(f):
    """(is_snp, violation, hull lattice points) with no filter: hull
    membership decided for every box point outside the support."""
    support = f.support()
    cloud = PointCloud(f.n, frozenset(support))
    box = product(*(range(min(c), max(c) + 1) for c in zip(*support)))
    hull = {p for p in box if p in support or hull_membership(p, cloud)}
    violations = hull - support
    return not violations, min(violations, default=None), frozenset(hull)


def filtered_bruteforce(f):
    """The same triple from snp_check_bruteforce."""
    verdict = snp_check_bruteforce(f)
    return verdict.is_snp, verdict.violation, verdict.hull_lattice_points


@pytest.fixture
def lp_queries(monkeypatch):
    """The target of every exact-simplex call the brute-force sweep makes."""
    targets = []
    certificate = exactlp.convex_certificate

    def counting(points, target):
        targets.append(tuple(target))
        return certificate(points, target)

    monkeypatch.setattr(exactlp, "convex_certificate", counting)
    return targets


class TestBruteForcePrefilter:
    def test_survivors_reach_the_simplex(self, lp_queries):
        # The facets through (0, 0) have normals (2, -1) and (-1, 2), which
        # are not 0/1 or 0/-1 vectors: (0, 1), (0, 2), (1, 0) and (2, 0) pass
        # every 0/1 and 0/-1 inequality, and the simplex rejects all four.
        cloud = {(0, 0), (1, 1), (1, 2), (2, 1)}
        verdict = snp_check_bruteforce(SparsePolynomial(2, dict.fromkeys(cloud, 1)))
        assert sorted(lp_queries) == [(0, 1), (0, 2), (1, 0), (2, 0)]
        assert verdict.is_snp
        assert verdict.hull_lattice_points == frozenset(cloud)

    def test_violation_is_found_through_the_simplex(self, lp_queries):
        verdict = snp_check_bruteforce(SparsePolynomial(2, {(2, 0): 1, (0, 2): 1}))
        assert lp_queries == [(1, 1)]
        assert verdict.violation == (1, 1)
        assert verdict.detail == "lattice point (1, 1) lies in the hull but not the support"

    def test_no_simplex_call_on_the_desk_sweep(self, lp_queries):
        """Every partition of the 3 x 3 box at n <= 5, past the desk sweep's
        n <= 3: the filter is complete on G_lambda, so with no hole in the
        support no point reaches the simplex."""
        pairs = [
            (lam, n) for lam in partitions_in_box(3, 3) for n in range(max(1, len(lam)), 6)
        ]
        assert len(pairs) == 74
        for lam, n in pairs:
            assert snp_check_bruteforce(grothendieck_setvalued(lam, n)).is_snp, (lam, n)
        assert lp_queries == []

    def test_desk_sweep_matches_the_unfiltered_reference(self):
        for lam, n in sweep_n3_pairs():
            f = grothendieck_setvalued(lam, n)
            assert filtered_bruteforce(f) == reference_bruteforce(f), (lam, n)

    def test_facets_cut_out_the_chain_polytopes(self):
        """The argument of the snp_check_bruteforce docstring, checked on every
        partition of the 4 x 4 box at n <= 5. With N the chain's length and
        l_j its last step that lands in rows 1..j, the points x of
        [0, lambda_1]^n with |lambda| <= |x| <= |lambda| + N and
        top_j(x) <= p_j(lambda) + min(|x| - |lambda|, l_j) for every j, each
        inequality one with a 0/1 or 0/-1 normal for each set of j
        coordinates, are the lattice points of the chain polytopes."""
        pairs = [
            (lam, n) for lam in partitions_in_box(4, 4) for n in range(max(1, len(lam)), 6)
        ]
        assert len(pairs) == 195
        for lam, n in pairs:
            chain = mu_chain(lam, n)
            low, high = lam.size(), lam.size() + len(chain.rows)
            prefix = list(accumulate(lam.padded(n)))
            last = [
                max((k for k, row in enumerate(chain.rows, 1) if row <= j), default=0)
                for j in range(1, n + 1)
            ]
            cut = {
                x
                for x in product(range(lam.part(1) + 1), repeat=n)
                if low <= sum(x) <= high
                and all(
                    top <= p + min(sum(x) - low, l)
                    for top, p, l in zip(accumulate(sorted(x, reverse=True)), prefix, last)
                )
            }
            chain_points = set().union(
                *(permutahedron_lattice_points(perm)
                  for _, perm in polytopes.newton_components(lam, n))
            )
            assert cut == chain_points, (lam, n)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.sets(
            st.tuples(*[st.integers(min_value=0, max_value=3)] * n),
            min_size=1,
            max_size=6,
        )
    )
)
@settings(max_examples=60, derandomize=True, deadline=None)
def test_prefilter_keeps_the_unfiltered_verdict(cloud):
    """On random clouds, about half of them unsaturated, the filtered sweep
    gives the verdict, the least violation and the hull lattice points of
    the reference that asks the simplex about every box point."""
    f = SparsePolynomial(len(next(iter(cloud))), dict.fromkeys(cloud, 1))
    assert filtered_bruteforce(f) == reference_bruteforce(f)


class TestFastRoute:
    def test_displayed_case_lists_four_polytopes(self):
        assert snp_check_symmetric_fast(Partition((3, 1)), 3).is_snp
        components = polytopes.newton_components(Partition((3, 1)), 3)
        assert [p.weight for _, p in components] == [
            (3, 1, 0),
            (3, 2, 0),
            (3, 2, 1),
            (3, 2, 2),
        ]

    def test_newton_components_pair_each_chain_shape_with_its_degree(self):
        components = polytopes.newton_components(Partition((3, 1)), 3)
        assert [(degree, p.weight, len(p.weight)) for degree, p in components] == [
            (4, (3, 1, 0), 3),
            (5, (3, 2, 0), 3),
            (6, (3, 2, 1), 3),
            (7, (3, 2, 2), 3),
        ]

    def test_empty_shape(self):
        assert snp_check_symmetric_fast(Partition(()), 2).is_snp
        components = polytopes.newton_components(Partition(()), 2)
        assert [(degree, p.weight) for degree, p in components] == [(0, (0, 0))]

    def test_one_box(self):
        assert snp_check_symmetric_fast(Partition((1,)), 2).is_snp
        components = polytopes.newton_components(Partition((1,)), 2)
        assert [(degree, p.weight) for degree, p in components] == [
            (1, (1, 0)),
            (2, (1, 1)),
        ]

    def test_agrees_with_brute_force_on_small_sweep(self):
        for lam in partitions_in_box(3, 3):
            for n in range(max(1, len(lam)), 4):
                fast = snp_check_symmetric_fast(lam, n)
                brute = snp_check_bruteforce(grothendieck_lenart(lam, n))
                assert fast.is_snp and brute.is_snp
                union = set()
                for _, p in polytopes.newton_components(lam, n):
                    union |= permutahedron_lattice_points(p)
                assert brute.hull_lattice_points == frozenset(union)



def full_route(poly, lam, n):
    """(violation, detail) of the degreewise check run on the full monomial
    support: each homogeneous component against all lattice points of its
    chain permutahedron."""
    chain = mu_chain(lam, n)
    base = lam.size()
    expected_degrees = {base + k for k in range(chain.length + 1)}
    seen_degrees = set(poly.degrees())
    if seen_degrees != expected_degrees:
        stray = sorted(seen_degrees.symmetric_difference(expected_degrees))
        return None, f"degree set mismatch at degrees {stray}"
    for k, mu in enumerate(chain.mus):
        points = permutahedron_lattice_points(Permutahedron.of_partition(mu, n))
        supp = poly.homogeneous_component(base + k).support()
        if supp != points:
            first = min(points.symmetric_difference(supp))
            return first, f"support/polytope mismatch in degree {base + k} at {first}"
    return None, ""


def broken_cases():
    """(lam, n, dominant exponent, new coefficient): every dominant term of a
    few small cases set to zero, and stray terms added inside and outside the
    degree range."""
    for parts, n in [((3, 1), 3), ((2, 2, 1), 4), ((2, 1), 4)]:
        lam = Partition(parts)
        for exp, _ in grothendieck_lenart_dominant(lam, n).items():
            yield lam, n, exp, 0
    yield Partition((2, 1)), 3, (4, 0, 0), 1
    yield Partition((2, 1)), 3, (5, 3, 0), -1


def plant(monkeypatch, lam, n, exp, coeff):
    """Set the dominant coefficient at exp to coeff where the fast check
    reads the Lenart kernel."""
    dominant = dict(grothendieck_lenart_dominant(lam, n).items())
    dominant[exp] = coeff
    monkeypatch.setattr(
        polytopes,
        "grothendieck_lenart_dominant",
        lambda lam, n: SparsePolynomial(n, dominant),
    )


@pytest.mark.parametrize("lam, n, exp, coeff", list(broken_cases()))
def test_fast_route_failures_match_the_full_route(monkeypatch, lam, n, exp, coeff):
    """A dominant coefficient changed in the Lenart kernel makes the fast
    check fail with the violation and detail that the full-support check
    gives on the polynomial with the whole orbit changed."""
    plant(monkeypatch, lam, n, exp, coeff)
    full = dict(grothendieck_lenart(lam, n).items())
    for point in permutations(exp):
        full[point] = coeff
    violation, detail = full_route(SparsePolynomial(n, full), lam, n)
    verdict = snp_check_symmetric_fast(lam, n)
    assert not verdict.is_snp
    assert (verdict.violation, verdict.detail) == (violation, detail)


@pytest.mark.parametrize("lam, n, exp, coeff", list(broken_cases()))
def test_failing_fast_report_lists_every_chain_component(
    monkeypatch, capsys, lam, n, exp, coeff
):
    """With a planted defect, snp exits 1 and still lists the (degree,
    weight) of every chain component, as newton does, with the verdict's
    violation and detail."""
    argv = ["--lambda", ",".join(map(str, lam.parts)), "--n", str(n)]
    assert cli.main(["newton", *argv]) == 0
    newton = json.loads(capsys.readouterr().out)["components"]
    plant(monkeypatch, lam, n, exp, coeff)
    verdict = snp_check_symmetric_fast(lam, n)
    assert cli.main(["snp", *argv]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["components"] == [
        {"degree": c["degree"], "weight": c["weight"]} for c in newton
    ]
    violation = list(verdict.violation) if verdict.violation else None
    assert (doc["violation"], doc["detail"]) == (violation, verdict.detail)


@given(
    st.integers(min_value=1, max_value=3).flatmap(
        lambda n: st.tuples(
            st.lists(st.integers(min_value=0, max_value=5), max_size=n),
            st.just(n),
        )
    )
)
@settings(max_examples=40, derandomize=True, deadline=None)
def test_brute_force_agrees_with_the_chain_polytopes(case):
    """The hull sweep (exact simplex) and the degreewise permutahedron check
    give the same verdict, and the sweep's hull lattice points are exactly
    the lattice points of the chain permutahedra, on random shapes with parts
    up to 5."""
    parts, n = case
    lam = Partition(tuple(sorted(parts, reverse=True)))
    brute = snp_check_bruteforce(grothendieck_lenart(lam, n))
    assert brute.is_snp == snp_check_symmetric_fast(lam, n).is_snp
    union = set()
    for mu in mu_chain(lam, n).mus:
        union |= permutahedron_lattice_points(Permutahedron.of_partition(mu, n))
    assert brute.hull_lattice_points == frozenset(union)

class TestSchurNewtonPolytope:
    def test_schur_support_is_the_permutahedron(self):
        for lam in partitions_in_box(3, 3):
            for n in range(max(1, len(lam)), 4):
                s = schur_polynomial(lam, n)
                expected = permutahedron_lattice_points(
                    Permutahedron.of_partition(lam, n)
                )
                assert s.support() == expected

"""Permutahedra, hull membership, Rado containment, and saturation verdicts."""

from itertools import permutations, product

import pytest
from hypothesis import example, given, settings, strategies as st

from grothsnp import (
    Partition,
    Permutahedron,
    PointCloud,
    SparsePolynomial,
    grothendieck_lenart,
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
from grothsnp import polytopes
from grothsnp.grothendieck import grothendieck_lenart_dominant
from grothsnp.partitions import majorizes


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
    perm = Permutahedron(weight=weight, n=len(weight))
    assert permutahedron_lattice_points(perm) == lattice_points_by_sweep(weight)
    assert permutahedron_vertices(perm) == set(permutations(weight))


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

    def test_weight_validation(self):
        with pytest.raises(ValueError):
            Permutahedron(weight=(1, 2), n=2)
        with pytest.raises(ValueError):
            Permutahedron(weight=(2, -1), n=2)
        with pytest.raises(ValueError):
            Permutahedron(weight=(2, 1), n=3)

    def test_json_is_sorted(self):
        doc = perm_of((1, 1), 2).to_json_dict()
        assert doc == {
            "weight": [1, 1],
            "n": 2,
            "vertices": [[1, 1]],
            "lattice_points": [[1, 1]],
        }
        doc2 = perm_of((2, 0), 2).to_json_dict()
        assert doc2["vertices"] == [[0, 2], [2, 0]]
        assert doc2["lattice_points"] == [[0, 2], [1, 1], [2, 0]]


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
        with pytest.raises(ValueError, match="dominance undefined across sizes"):
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


class TestFastRoute:
    def test_displayed_case_lists_four_polytopes(self):
        verdict = snp_check_symmetric_fast(Partition((3, 1)), 3)
        assert verdict.is_snp
        assert [p.weight for p in verdict.components] == [
            (3, 1, 0),
            (3, 2, 0),
            (3, 2, 1),
            (3, 2, 2),
        ]

    def test_empty_shape(self):
        verdict = snp_check_symmetric_fast(Partition(()), 2)
        assert verdict.is_snp
        assert [p.weight for p in verdict.components] == [(0, 0)]

    def test_one_box(self):
        verdict = snp_check_symmetric_fast(Partition((1,)), 2)
        assert verdict.is_snp
        assert [p.weight for p in verdict.components] == [(1, 0), (1, 1)]

    def test_agrees_with_brute_force_on_small_sweep(self):
        for lam in partitions_in_box(3, 3):
            for n in range(max(1, len(lam)), 4):
                fast = snp_check_symmetric_fast(lam, n)
                brute = snp_check_bruteforce(grothendieck_lenart(lam, n))
                assert fast.is_snp and brute.is_snp
                union = set()
                for p in fast.components:
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


@pytest.mark.parametrize("lam, n, exp, coeff", list(broken_cases()))
def test_fast_route_failures_match_the_full_route(monkeypatch, lam, n, exp, coeff):
    """A dominant coefficient changed in the Lenart kernel makes the fast
    check fail with the violation and detail that the full-support check
    gives on the polynomial with the whole orbit changed."""
    dominant = dict(grothendieck_lenart_dominant(lam, n).items())
    dominant[exp] = coeff
    monkeypatch.setattr(
        polytopes,
        "grothendieck_lenart_dominant",
        lambda lam, n: SparsePolynomial(n, dominant),
    )
    full = dict(grothendieck_lenart(lam, n).items())
    for point in permutations(exp):
        full[point] = coeff
    violation, detail = full_route(SparsePolynomial(n, full), lam, n)
    verdict = snp_check_symmetric_fast(lam, n)
    assert not verdict.is_snp
    assert (verdict.violation, verdict.detail) == (violation, detail)


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

"""Permutahedra, Rado containment, and saturation checks for Newton polytopes.

Everything here is lattice-exact. By Rado's theorem the lattice points of a
permutahedron are the orbits of the dominant weights below its own weight in
dominance order, which one walk under the weight's prefix sums lists
(`partitions.dominated_partitions`), and its vertices are the orbit of that
weight. Hull membership of an integer point is decided by exact linear
feasibility in integers instead (`exactlp`), so the two saturation routes
(geometry sweep versus degreewise permutahedra) stay independent and can
audit each other.
"""

from __future__ import annotations

from itertools import product
from operator import gt, index
from typing import TYPE_CHECKING, Iterable, Iterator

from .grothendieck import grothendieck_lenart_dominant, mu_chain
from .partitions import ExponentVector, Frozen, Partition, dominated_partitions, majorizes

if TYPE_CHECKING:
    from .polynomials import SparsePolynomial


class Permutahedron(Frozen):
    """Convex hull of all coordinate permutations of a weakly decreasing weight."""

    __slots__ = ("weight",)

    def __init__(self, weight: tuple[int, ...]) -> None:
        weight = tuple(map(index, weight))  # integers only, or TypeError
        super().__init__(weight)
        if any(x < 0 for x in weight):
            raise ValueError("weight coordinates must be nonnegative")
        if any(a < b for a, b in zip(weight, weight[1:])):
            raise ValueError("weight must be weakly decreasing")

    @classmethod
    def of_partition(cls, lam: Partition, n: int) -> "Permutahedron":
        return cls(lam.padded(n))


class PointCloud(Frozen):
    """A finite set of integer points of one common dimension."""

    __slots__ = ("n", "points")

    def __init__(self, n: int, points: Iterable) -> None:
        # An integer dimension and integer points, or TypeError.
        super().__init__(index(n), frozenset(tuple(map(index, p)) for p in points))
        if any(len(p) != self.n for p in self.points):
            raise ValueError("all points must have the cloud's dimension")


def _orbit(weight: tuple[int, ...]) -> Iterator[ExponentVector]:
    """Each distinct rearrangement of weight once, by next-permutation steps."""
    v = sorted(weight)
    while True:
        yield tuple(v)
        i = len(v) - 2
        while i >= 0 and v[i] >= v[i + 1]:
            i -= 1
        if i < 0:
            return
        j = len(v) - 1
        while v[j] <= v[i]:
            j -= 1
        v[i], v[j] = v[j], v[i]
        v[i + 1 :] = reversed(v[i + 1 :])


def permutahedron_vertices(p: Permutahedron) -> set[ExponentVector]:
    """The orbit of the weight under all coordinate permutations."""
    return set(_orbit(p.weight))


def permutahedron_lattice_points(p: Permutahedron) -> set[ExponentVector]:
    """Integer points by Rado's theorem: the orbits of the partitions that
    the weight dominates, as the walk lists them, padded to its length."""
    return {point for nu in dominated_partitions(p.weight) for point in _orbit(nu)}


def newton_components(lam: Partition, n: int) -> list[tuple[int, Permutahedron]]:
    """The paper's theorem as data: for each shape mu^(k) of mu_chain(lam, n),
    the degree |lam| + k and P_{mu^(k)} in n variables, the Newton polytope of
    the component of G_lam in that degree; no caller builds the chain."""
    return [
        (degree, Permutahedron.of_partition(mu, n))
        for degree, mu in enumerate(mu_chain(lam, n).mus, lam.size())
    ]


def rado_contains(theta: Partition, delta: Partition) -> bool:
    """Permutahedron containment P_theta inside P_delta, decided by dominance."""
    return majorizes(delta.parts, theta.parts)


def hull_membership(q, cloud: PointCloud) -> bool:
    """Exact test for the integer point q lying in the convex hull of the cloud."""
    if not cloud.points:
        raise ValueError("hull membership against an empty cloud")
    q = tuple(map(index, q))  # before the lookup, where (2.0, 0.0) == (2, 0)
    if len(q) != cloud.n:
        raise ValueError("query point dimension does not match the cloud")
    if q in cloud.points:
        return True
    from .exactlp import convex_certificate  # here: only the simplex needs it

    return convex_certificate(sorted(cloud.points), q) is not None


class SnpVerdict(Frozen):
    """Outcome of a saturation check.

    violation holds the lexicographically least offending lattice point when
    the check fails; hull_lattice_points is filled by the brute-force route
    (all integer points of the Newton polytope). The fast route records no
    polytopes: whatever its verdict, they are newton_components(lam, n).
    """

    __slots__ = ("is_snp", "violation", "hull_lattice_points", "detail")

    def __init__(
        self,
        is_snp: bool,
        violation: ExponentVector | None = None,
        hull_lattice_points: frozenset = frozenset(),
        detail: str = "",
    ) -> None:
        super().__init__(is_snp, violation, hull_lattice_points, detail)


def _directional_sums(point: ExponentVector) -> list[int]:
    """<d, point> for every d in {-1,0,1}^n, in the order of
    product((-1, 0, 1), repeat=n): each coordinate c in turn extends every
    sum over the coordinates before it by -c, 0 and c."""
    sums = [0]
    for c in point:
        sums = [s + t for s in sums for t in (-c, 0, c)]
    return sums


def snp_check_bruteforce(f: SparsePolynomial) -> SnpVerdict:
    """Sweep the bounding box of the support and test every integer point.

    A box point outside the support is first held against the valid
    inequalities <d, x> <= max <d, p> over the support, one for each d in
    {-1,0,1}^n, with all of a point's sums <d, x> built in one pass. A point
    that breaks one lies outside the hull; the rest go to the exact simplex,
    and a point it puts inside the hull is a saturation violation. The filter
    uses no symmetry and no permutahedra, so this route stays independent of
    snp_check_symmetric_fast. The box is walked in lexicographic order, so
    the first violation is the least. The verdict records all hull lattice
    points, so a passing result doubles as a full Newton polytope description.

    On G_lambda the filter is complete: a point reaches the simplex only if
    it is a hole in the support. Each step of the greedy chain adds one box,
    so each prefix sum p_j(mu^(k)) grows by 0 or 1 per degree. Where
    component-snp and claim c hold, the upper envelope of p_j over the
    degrees is that sequence, so each facet of the Newton polytope reads
    <1_S, x> <= c or <1_S, x> - |x| <= c for a set S of coordinates, or
    bounds the degree |x|; each normal lies in {-1,0,1}^n.
    """
    support = f.support()
    if not support:
        raise ValueError("zero polynomial has no Newton polytope")
    cloud = PointCloud(f.n, support)
    # <d, x> <= h holds on the whole hull when h is the largest <d, p> over
    # the support. The zero direction's height is 0, which no point breaks.
    heights = list(map(max, zip(*map(_directional_sums, support))))
    box = product(*(range(min(c), max(c) + 1) for c in zip(*support)))
    violations = [
        point
        for point in box
        if point not in cloud.points
        and not any(map(gt, _directional_sums(point), heights))
        and hull_membership(point, cloud)
    ]
    hull_points = cloud.points.union(violations)
    if not violations:
        return SnpVerdict(is_snp=True, hull_lattice_points=hull_points)
    first = violations[0]
    detail = f"lattice point {first} lies in the hull but not the support"
    return SnpVerdict(False, first, hull_points, detail)


def snp_check_symmetric_fast(lam: Partition, n: int) -> SnpVerdict:
    """Degreewise saturation check against the greedy chain's permutahedra.

    Each homogeneous component has saturated Newton polytope, the matching
    chain permutahedron, exactly when its support matches that
    permutahedron's lattice points, and no stray degrees occur; with claim c
    this makes the whole Newton polytope saturated. Both sides are unions
    of orbits, the support by symmetry and the lattice points by Rado's
    theorem, so the check compares the dominant terms in degree |lam|+k with
    the walk's partitions below mu^(k), padded to n, one degree's set at a
    time. A mismatch is reported at the least point of the full symmetric
    difference, the least ascending rearrangement of a dominant mismatch.
    """
    dominant = grothendieck_lenart_dominant(lam, n)
    expected = dict(newton_components(lam, n))
    supports: dict[int, set[ExponentVector]] = {}
    for exp, _ in dominant.items():
        supports.setdefault(sum(exp), set()).add(exp)
    if supports.keys() != expected.keys():
        stray = sorted(supports.keys() ^ expected.keys())
        return SnpVerdict(is_snp=False, detail=f"degree set mismatch at degrees {stray}")
    for degree, perm in expected.items():
        points = set(dominated_partitions(perm.weight))
        supp = supports[degree]
        if supp != points:
            first = min(tuple(sorted(nu)) for nu in points.symmetric_difference(supp))
            return SnpVerdict(
                is_snp=False,
                violation=first,
                detail=f"support/polytope mismatch in degree {degree} at {first}",
            )
    return SnpVerdict(is_snp=True)

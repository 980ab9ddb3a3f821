"""Permutahedra, Rado containment, and saturation checks for Newton polytopes.

Everything here is lattice-exact. By Rado's theorem the lattice points of a
permutahedron are the orbits of the dominant weights below its own weight in
dominance order, and its vertices are the orbit of that weight. Hull
membership is decided by rational linear feasibility instead, so the two
saturation routes (geometry sweep versus degreewise permutahedra) stay
independent and can audit each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import product
from typing import Iterator

from .exactlp import convex_certificate
from .grothendieck import grothendieck_lenart_dominant, mu_chain
from .partitions import ExponentVector, Partition, dominance_leq, partitions_of_size
from .polynomials import SparsePolynomial


@dataclass(frozen=True)
class Permutahedron:
    """Convex hull of all coordinate permutations of a weakly decreasing weight."""

    weight: tuple[int, ...]
    n: int

    def __post_init__(self) -> None:
        if len(self.weight) != self.n:
            raise ValueError("weight must have exactly n coordinates")
        if any(x < 0 for x in self.weight):
            raise ValueError("weight coordinates must be nonnegative")
        if any(a < b for a, b in zip(self.weight, self.weight[1:])):
            raise ValueError("weight must be weakly decreasing")

    @classmethod
    def of_partition(cls, lam: Partition, n: int) -> "Permutahedron":
        return cls(weight=lam.padded(n), n=n)

    def to_json_dict(self) -> dict:
        return {
            "weight": list(self.weight),
            "n": self.n,
            "vertices": [list(v) for v in sorted(permutahedron_vertices(self))],
            "lattice_points": [
                list(v) for v in sorted(permutahedron_lattice_points(self))
            ],
        }


@dataclass(frozen=True)
class PointCloud:
    """A finite set of points of one common dimension."""

    n: int
    points: frozenset

    def __post_init__(self) -> None:
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


def _dominated(p: Permutahedron) -> set[ExponentVector]:
    """The partitions with at most n rows that the weight dominates (so no
    part exceeds its first), padded to n coordinates."""
    weight = Partition(p.weight)
    return {
        nu.padded(p.n)
        for nu in partitions_of_size(weight.size(), p.n, max(p.weight, default=0))
        if dominance_leq(nu, weight)
    }


def permutahedron_lattice_points(p: Permutahedron) -> set[ExponentVector]:
    """Integer points by Rado's theorem: the orbits of the partitions with at
    most n rows that the weight dominates."""
    return {point for nu in _dominated(p) for point in _orbit(nu)}


def rado_contains(theta: Partition, delta: Partition) -> bool:
    """Permutahedron containment P_theta inside P_delta, decided by dominance."""
    return dominance_leq(theta, delta)


def hull_membership(q, cloud: PointCloud) -> bool:
    """Exact test for q lying in the convex hull of the cloud."""
    if not cloud.points:
        raise ValueError("hull membership against an empty cloud")
    if len(q) != cloud.n:
        raise ValueError("query point dimension does not match the cloud")
    if tuple(q) in cloud.points:
        return True
    return convex_certificate(sorted(cloud.points), tuple(q)) is not None


@dataclass(frozen=True)
class SnpVerdict:
    """Outcome of a saturation check.

    violation holds the lexicographically least offending lattice point when
    the check fails; hull_lattice_points is filled by the brute-force route
    (all integer points of the Newton polytope); components is filled by the
    fast route (one permutahedron per homogeneous degree).
    """

    is_snp: bool
    violation: ExponentVector | None = None
    hull_lattice_points: frozenset = field(default_factory=frozenset)
    components: tuple[Permutahedron, ...] = ()
    detail: str = ""


def snp_check_bruteforce(f: SparsePolynomial) -> SnpVerdict:
    """Sweep the bounding box of the support and test every integer point.

    A point inside the hull (decided exactly) but outside the support is a
    saturation violation. The verdict records all hull lattice points, so a
    passing result doubles as a full Newton polytope description.
    """
    support = f.support()
    if not support:
        raise ValueError("zero polynomial has no Newton polytope")
    cloud = PointCloud(f.n, frozenset(support))
    hull_points: set[ExponentVector] = set()
    violations: list[ExponentVector] = []
    for point in product(*(range(min(c), max(c) + 1) for c in zip(*support))):
        if point in cloud.points:
            hull_points.add(point)
        elif hull_membership(point, cloud):
            hull_points.add(point)
            violations.append(point)
    if violations:
        first = min(violations)
        return SnpVerdict(
            is_snp=False,
            violation=first,
            hull_lattice_points=frozenset(hull_points),
            detail=f"lattice point {first} lies in the hull but not the support",
        )
    return SnpVerdict(is_snp=True, hull_lattice_points=frozenset(hull_points))


def snp_check_symmetric_fast(lam: Partition, n: int) -> SnpVerdict:
    """Degreewise saturation check against the greedy chain's permutahedra.

    The polynomial has saturated Newton polytope, equal to the union of the
    chain permutahedra, exactly when the support of each homogeneous
    component matches the lattice points of the matching permutahedron and
    no stray degrees occur. Both sides are unions of orbits, the support by
    symmetry and the lattice points by Rado's theorem, so the check compares
    the dominant terms in degree |lam|+k with the partitions below mu^(k). A
    mismatch is reported at the least point of the full symmetric difference,
    the least ascending rearrangement of a dominant mismatch.
    """
    dominant = grothendieck_lenart_dominant(lam, n)
    chain = mu_chain(lam, n)
    base = lam.size()
    expected_degrees = {base + k for k in range(chain.length + 1)}
    seen_degrees = set(dominant.degrees())
    if seen_degrees != expected_degrees:
        stray = sorted(seen_degrees.symmetric_difference(expected_degrees))
        return SnpVerdict(
            is_snp=False,
            detail=f"degree set mismatch at degrees {stray}",
        )
    components = []
    for k, mu in enumerate(chain.mus):
        perm = Permutahedron.of_partition(mu, n)
        points = _dominated(perm)
        supp = dominant.homogeneous_component(base + k).support()
        if supp != points:
            first = min(tuple(sorted(nu)) for nu in points.symmetric_difference(supp))
            return SnpVerdict(
                is_snp=False,
                violation=first,
                components=tuple(components),
                detail=f"support/polytope mismatch in degree {base + k} at {first}",
            )
        components.append(perm)
    return SnpVerdict(is_snp=True, components=tuple(components))

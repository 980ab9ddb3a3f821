"""Permutahedra, Rado containment, and saturation checks for Newton polytopes.

Everything here is lattice-exact. Hull membership is decided by rational
linear feasibility, lattice points of a permutahedron come from the
majorization description of its integer points, and the two saturation
routes (geometry sweep versus the degreewise permutahedron comparison) are
kept independent so they can audit each other.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import permutations

from .exactlp import convex_certificate
from .grothendieck import grothendieck_lenart, mu_chain
from .partitions import (
    ExponentVector,
    Partition,
    dominance_leq,
    majorizes,
)
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


def permutahedron_vertices(p: Permutahedron) -> set[ExponentVector]:
    """The orbit of the weight under all coordinate permutations."""
    return set(permutations(p.weight))


def permutahedron_lattice_points(p: Permutahedron) -> set[ExponentVector]:
    """Integer points: nonnegative vectors of the right total majorized by
    the weight (Rado's description applied to one-point orbits).
    """
    total = sum(p.weight)
    cap = p.weight[0] if p.n else 0
    out: set[ExponentVector] = set()

    def sweep(i: int, remaining: int, prefix: tuple[int, ...]) -> None:
        if i == p.n:
            if remaining == 0 and majorizes(p.weight, prefix):
                out.add(prefix)
            return
        tail = p.n - i - 1
        lo = max(0, remaining - cap * tail)
        for x in range(lo, min(cap, remaining) + 1):
            sweep(i + 1, remaining - x, prefix + (x,))

    sweep(0, total, ())
    return out


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
    los = [min(pt[i] for pt in support) for i in range(f.n)]
    his = [max(pt[i] for pt in support) for i in range(f.n)]
    hull_points: set[ExponentVector] = set()
    violations: list[ExponentVector] = []

    def sweep(i: int, prefix: tuple[int, ...]) -> None:
        if i == f.n:
            if prefix in cloud.points:
                hull_points.add(prefix)
            elif hull_membership(prefix, cloud):
                hull_points.add(prefix)
                violations.append(prefix)
            return
        for x in range(los[i], his[i] + 1):
            sweep(i + 1, prefix + (x,))

    sweep(0, ())
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
    no stray degrees occur.
    """
    poly = grothendieck_lenart(lam, n)
    chain = mu_chain(lam, n)
    base = lam.size()
    expected_degrees = {base + k for k in range(chain.length + 1)}
    seen_degrees = set(poly.degrees())
    if seen_degrees != expected_degrees:
        stray = sorted(seen_degrees.symmetric_difference(expected_degrees))
        return SnpVerdict(
            is_snp=False,
            detail=f"degree set mismatch at degrees {stray}",
        )
    components = []
    for k, mu in enumerate(chain.mus):
        perm = Permutahedron.of_partition(mu, n)
        points = permutahedron_lattice_points(perm)
        supp = poly.homogeneous_component(base + k).support()
        if supp != points:
            first = min(points.symmetric_difference(supp))
            return SnpVerdict(
                is_snp=False,
                violation=first,
                components=tuple(components),
                detail=f"support/polytope mismatch in degree {base + k} at {first}",
            )
        components.append(perm)
    return SnpVerdict(is_snp=True, components=tuple(components))

"""Exact convex-membership certificates for integer points and targets: the
weights come back as integer numerators over one denominator."""

import random
from fractions import Fraction

import pytest

from grothsnp import PointCloud, exactlp, hull_membership
from grothsnp.exactlp import convex_certificate


def fraction_phase1(points, target):
    """Reference: the phase-1 simplex on Fraction arithmetic that the integer
    pivoting replaced. Same system, same Bland rule, same retiring of
    artificials; each pivot divides the pivot row through by its pivot."""
    if not points:
        return None
    pts = [tuple(Fraction(x) for x in p) for p in points]
    goal = tuple(Fraction(x) for x in target)
    dim = len(goal)
    if any(len(p) != dim for p in pts):
        raise ValueError("all points must share the target's dimension")
    m = len(pts)
    rows = dim + 1

    tableau = []
    for i in range(rows):
        if i < dim:
            body = [pts[j][i] for j in range(m)]
            rhs = goal[i]
        else:
            body = [Fraction(1)] * m
            rhs = Fraction(1)
        if rhs < 0:
            body = [-x for x in body]
            rhs = -rhs
        art = [Fraction(0)] * rows
        art[i] = Fraction(1)
        tableau.append(body + art + [rhs])

    basis = list(range(m, m + rows))
    retired = [False] * rows
    z = [sum(tableau[i][j] for i in range(rows)) for j in range(m + rows + 1)]
    for j in range(m, m + rows):
        z[j] -= 1

    while True:
        entering = None
        for j in range(m + rows):
            if j >= m and retired[j - m]:
                continue
            if z[j] > 0:
                entering = j
                break
        if entering is None:
            break
        pivot_row = None
        best = None
        for i in range(rows):
            coeff = tableau[i][entering]
            if coeff <= 0:
                continue
            ratio = tableau[i][-1] / coeff
            if best is None or ratio < best or (
                ratio == best and basis[i] < basis[pivot_row]
            ):
                best = ratio
                pivot_row = i
        leaving = basis[pivot_row]
        if leaving >= m:
            retired[leaving - m] = True
        pivot = tableau[pivot_row][entering]
        tableau[pivot_row] = [x / pivot for x in tableau[pivot_row]]
        for i in range(rows):
            if i != pivot_row and tableau[i][entering] != 0:
                factor = tableau[i][entering]
                tableau[i] = [
                    a - factor * b for a, b in zip(tableau[i], tableau[pivot_row])
                ]
        if z[entering] != 0:
            factor = z[entering]
            z = [a - factor * b for a, b in zip(z, tableau[pivot_row])]
        basis[pivot_row] = entering

    if z[-1] != 0:
        return None
    weights = [Fraction(0)] * m
    for i, var in enumerate(basis):
        if var < m:
            weights[var] = tableau[i][-1]
    return tuple(weights)


def weights_of(cert):
    """The certificate (numerators, d) as Fraction weights, or None."""
    if cert is None:
        return None
    numerators, d = cert
    return tuple(Fraction(w, d) for w in numerators)


def reconstruct(weights, points):
    dim = len(points[0])
    return tuple(
        sum(w * p[i] for w, p in zip(weights, points)) for i in range(dim)
    )


class TestBasics:
    def test_cloud_point_is_inside(self):
        points = [(2, 0), (0, 2), (1, 5)]
        cert = weights_of(convex_certificate(points, (1, 5)))
        assert cert is not None
        assert sum(cert) == 1
        assert reconstruct(cert, points) == (1, 5)

    def test_midpoint_of_a_segment(self):
        cert = weights_of(convex_certificate([(2, 0), (0, 2)], (1, 1)))
        assert cert == (Fraction(1, 2), Fraction(1, 2))

    def test_point_off_the_segment(self):
        assert convex_certificate([(2, 0), (0, 2)], (2, 2)) is None

    def test_empty_cloud(self):
        assert convex_certificate([], (1, 1)) is None

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            convex_certificate([(1, 0), (0, 1, 0)], (1, 0))

    def test_certificate_is_integer_numerators_over_one_denominator(self):
        numerators, d = convex_certificate([(0, 0), (3, 0), (0, 3)], (1, 1))
        assert all(type(w) is int for w in numerators) and type(d) is int
        assert d > 0 and sum(numerators) == d


class TestDegenerate:
    def test_duplicate_points(self):
        cert = convex_certificate([(1, 1), (1, 1), (3, 3)], (2, 2))
        assert cert is not None

    def test_single_point_cloud(self):
        assert convex_certificate([(4, 7)], (4, 7)) is not None
        assert convex_certificate([(4, 7)], (4, 8)) is None

    def test_collinear_cloud_off_line(self):
        points = [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert convex_certificate(points, (2, 2)) is not None
        assert convex_certificate(points, (2, 1)) is None

    def test_interior_of_a_tetrahedron(self):
        points = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]
        inside = (1, 1, 1)
        outside = (3, 3, 3)
        assert convex_certificate(points, inside) is not None
        assert convex_certificate(points, outside) is None


class TestRandomized:
    def test_random_convex_mixes_are_certified(self):
        rng = random.Random(20240811)
        for _ in range(60):
            dim = rng.randint(1, 4)
            points = [
                tuple(rng.randint(0, 6) for _ in range(dim))
                for _ in range(rng.randint(1, 7))
            ]
            raws = [rng.randint(0, 9) for _ in points]
            if sum(raws) == 0:
                raws[0] = 1
            # The mix sum(raws[j] * points[j]) / total, with everything
            # scaled by total to stay in integers.
            total = sum(raws)
            target = tuple(
                sum(a * x for a, x in zip(raws, column)) for column in zip(*points)
            )
            points = [tuple(total * x for x in p) for p in points]
            cert = weights_of(convex_certificate(points, target))
            assert cert is not None
            assert sum(cert) == 1
            assert all(w >= 0 for w in cert)
            assert reconstruct(cert, points) == target

    def test_points_beyond_the_box_are_rejected(self):
        rng = random.Random(77)
        for _ in range(40):
            dim = rng.randint(1, 3)
            points = [
                tuple(rng.randint(0, 5) for _ in range(dim))
                for _ in range(rng.randint(1, 6))
            ]
            bigger = max(max(p) for p in points) + 1
            target = tuple(bigger for _ in range(dim))
            assert convex_certificate(points, target) is None


def random_system(rng):
    """A small integer system: coordinates possibly negative (so rows get
    sign-flipped), possibly with repeated points or a collinear cloud."""
    dim = rng.randint(0, 4)
    low = rng.choice([0, -3, -6])
    points = [
        tuple(rng.randint(low, 6) for _ in range(dim))
        for _ in range(rng.randint(1, 8))
    ]
    shape = rng.random()
    if shape < 0.25:
        points += rng.sample(points, rng.randint(1, len(points)))
    elif shape < 0.45 and dim:
        step = tuple(rng.randint(-2, 2) for _ in range(dim))
        points = [
            tuple(b + t * s for b, s in zip(points[0], step))
            for t in range(rng.randint(1, 6))
        ]
    if rng.random() < 0.5:
        # A mix of the points: inside the hull, often on a face.
        raws = [rng.randint(0, 3) for _ in points]
        raws[rng.randrange(len(raws))] += 1
        total = sum(raws)
        target = tuple(
            sum(a * p[i] for a, p in zip(raws, points)) // total
            for i in range(dim)
        )
    else:
        target = tuple(rng.randint(low, 6) for _ in range(dim))
    return points, target


class TestAgainstFractionReference:
    def test_same_certificate_on_random_integer_systems(self):
        rng = random.Random(5)
        inside = 0
        for _ in range(3000):
            points, target = random_system(rng)
            expected = fraction_phase1(points, target)
            found = weights_of(convex_certificate(points, target))
            assert found == expected, (points, target)
            inside += expected is not None
        assert 600 < inside < 2400  # both verdicts are well exercised


class TestIntegerInputs:
    @pytest.mark.parametrize("entry", [Fraction(1, 2), 0.5], ids=["Fraction", "float"])
    def test_non_integers_are_refused_before_pivoting(self, monkeypatch, entry):
        def no_pivoting(pts, goal):
            raise AssertionError("a non-integer entry reached the simplex")

        monkeypatch.setattr(exactlp, "_phase1", no_pivoting)
        points = [(0, 0), (1, 0), (0, 1)]
        with pytest.raises(TypeError):
            convex_certificate(points, (entry, 0))
        with pytest.raises(TypeError):
            convex_certificate([*points, (entry, 1)], (0, 0))
        with pytest.raises(TypeError):  # read before the empty-points return
            convex_certificate([], (entry, 0))
        with pytest.raises(TypeError):
            hull_membership((entry, entry), PointCloud(2, frozenset(points)))

    @pytest.mark.parametrize("query", [(2.0, 0.0), (Fraction(2), 0)], ids=["float", "Fraction"])
    def test_a_non_integer_query_equal_to_a_cloud_point_is_refused(self, query):
        # (2.0, 0.0) == (2, 0), so the support lookup alone would accept it.
        with pytest.raises(TypeError):
            hull_membership(query, PointCloud(2, frozenset({(2, 0), (0, 2)})))


class TestCertificateRecheck:
    # Numerators over d for the points (0, 0), (2, 0), (4, 0) and target (1, 0).
    @pytest.mark.parametrize(
        "bogus",
        [
            ([4, 0, 0], 4),  # sums to d but misses the target
            ([1, 4, -1], 4),  # reproduces the target with a negative weight
            ([0, 2, 0], 4),  # reproduces the target, sums to d / 2
            ([-2, -2, 0], -4),  # a denominator that cannot come from a pivot
        ],
    )
    def test_invalid_certificates_are_refused(self, monkeypatch, bogus):
        monkeypatch.setattr(exactlp, "_phase1", lambda pts, goal: bogus)
        with pytest.raises(RuntimeError, match="invalid certificate"):
            convex_certificate([(0, 0), (2, 0), (4, 0)], (1, 0))
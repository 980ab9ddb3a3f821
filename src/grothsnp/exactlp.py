"""Exact convex-hull membership of an integer point, pivoted in integers.

The only question asked here is whether an integer target vector is a
convex combination of finitely many integer points. It is answered with a
phase-1 simplex that is fraction-free (Edmonds 1967; Bareiss 1968): the
tableau holds integers over one common denominator d, the last pivot, and
each pivot divides exactly by the previous one. No floats, no tolerances
and no rationals: the weights come back as integer numerators over d.

Bland's least-index rule makes the pivoting finite. Artificial columns are
retired for good the moment they leave the basis; until then they are basic.
So no artificial column can ever enter, and none is stored.
"""

from __future__ import annotations

from operator import index
from typing import Sequence


def _phase1(pts: list[list[int]], goal: list[int]) -> tuple[list[int], int] | None:
    """Weight numerators and their common denominator d > 0 of a feasible
    basic solution of sum_j c_j * pts[j] = goal, sum_j c_j = 1, c >= 0; or
    None if the system is infeasible."""
    m = len(pts)
    # Equality rows (body, then right-hand side) flipped to a nonnegative
    # right-hand side; column m + i is the artificial variable of row i.
    tableau = []
    for i, rhs in enumerate(goal):
        row = [p[i] for p in pts] + [rhs]
        tableau.append([-x for x in row] if rhs < 0 else row)
    tableau.append([1] * (m + 1))
    basis = list(range(m, m + len(tableau)))

    # Reduced-cost row for minimizing the sum of artificials, times d: entry
    # j holds z_j - c_j, the last entry the current objective value.
    z = [sum(col) for col in zip(*tableau)]
    d = 1

    while True:
        entering = next((j for j in range(m) if z[j] > 0), None)
        if entering is None:
            break
        pivot_row = None
        for i, row in enumerate(tableau):
            coeff = row[entering]
            if coeff <= 0:
                continue
            if pivot_row is None:
                pivot_row, best_rhs, best_coeff = i, row[-1], coeff
                continue
            # rhs / coeff against best_rhs / best_coeff; both coefficients > 0.
            lhs, rhs = row[-1] * best_coeff, best_rhs * coeff
            if lhs < rhs or (lhs == rhs and basis[i] < basis[pivot_row]):
                pivot_row, best_rhs, best_coeff = i, row[-1], coeff
        if pivot_row is None:
            raise RuntimeError("phase-1 objective unbounded; inputs malformed")
        pivot = tableau[pivot_row]
        p = pivot[entering]
        # Every other row moves to the new denominator p, the reduced-cost row
        # too, even where its entering entry is already 0.
        for i, row in enumerate(tableau):
            if i != pivot_row:
                f = row[entering]
                tableau[i] = [(p * a - f * b) // d for a, b in zip(row, pivot)]
        f = z[entering]
        z = [(p * a - f * b) // d for a, b in zip(z, pivot)]
        d = p
        basis[pivot_row] = entering

    if z[-1] != 0:
        return None
    weights = [0] * m
    for row, var in zip(tableau, basis):
        if var < m:
            weights[var] = row[-1]
    return weights, d


def convex_certificate(
    points: Sequence[Sequence[int]], target: Sequence[int]
) -> tuple[list[int], int] | None:
    """Convex weights writing target as a mix of the points, or None.

    The system solved is sum_j c_j * points[j] = target, sum_j c_j = 1,
    c_j >= 0, over integer points and target; every entry is read through
    operator.index, so a non-integer is refused with TypeError. The weights
    come back as integer numerators over one denominator d > 0, c_j =
    numerators[j] / d, an exact certificate that is re-verified against the
    system before being handed back.
    """
    goal = [index(x) for x in target]
    if not points:
        return None
    pts = [[index(x) for x in p] for p in points]
    if any(len(p) != len(goal) for p in pts):
        raise ValueError("all points must share the target's dimension")
    found = _phase1(pts, goal)
    if found is None:
        return None
    weights, d = found

    if d <= 0 or any(w < 0 for w in weights) or sum(weights) != d:
        raise RuntimeError("simplex returned an invalid certificate")
    for i, coord in enumerate(goal):
        if sum(w * p[i] for w, p in zip(weights, pts)) != d * coord:
            raise RuntimeError("simplex returned an invalid certificate")
    return weights, d

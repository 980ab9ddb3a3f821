"""Acceptance battery: exact reproduction of the worked example plus the
property and oracle suites at desk scale. All tolerances are zero; every
comparison is on exact integers or rationals.

Each criterion is one test named test_a1 .. test_a9; the terminal summary
hook in conftest.py prints one PASS/FAIL line per criterion.
"""

import json
import time
from itertools import product

from grothsnp import (
    Partition,
    PointCloud,
    Permutahedron,
    check_claim_a,
    check_claim_b,
    check_claim_c,
    check_lemmas_random,
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
from grothsnp.cli import main


def sweep_combos(max_rows=4, max_part=4, max_n=4):
    for lam in sorted(partitions_in_box(max_rows, max_part), key=lambda p: p.parts):
        for n in range(max(1, len(lam)), max_n + 1):
            yield lam, n


def run_cli(capsys, *argv):
    status = main(list(argv))
    return status, capsys.readouterr().out


def test_a1_paper_expansion(capsys):
    """The displayed five-term Schur expansion, byte-exact through the CLI."""
    start = time.perf_counter()
    status, out = run_cli(capsys, "expand", "--lambda", "3,1,0", "--n", "3")
    elapsed = time.perf_counter() - start
    assert status == 0
    doc = json.loads(out)
    assert doc["lambda"] == [3, 1]
    assert doc["n"] == 3
    assert doc["terms"] == [
        {"mu": [3, 1], "coeff": 1},
        {"mu": [3, 1, 1], "coeff": -2},
        {"mu": [3, 2], "coeff": -1},
        {"mu": [3, 2, 1], "coeff": 2},
        {"mu": [3, 2, 2], "coeff": -1},
    ]
    assert elapsed < 1.0
    print(f"A1: PASS - displayed expansion reproduced in {elapsed:.3f}s")


def test_a2_componentwise_snp():
    """Each homogeneous component's support equals the lattice points of the
    matching chain permutahedron, over the whole desk-scale sweep."""
    start = time.perf_counter()
    combos = 0
    for lam, n in sweep_combos():
        poly = grothendieck_lenart(lam, n)
        chain = mu_chain(lam, n)
        base = lam.size()
        degrees = set(poly.degrees())
        assert degrees == {base + k for k in range(chain.length + 1)}, (lam.parts, n)
        for k, mu in enumerate(chain.mus):
            expected = permutahedron_lattice_points(Permutahedron.of_partition(mu, n))
            got = poly.homogeneous_component(base + k).support()
            assert got == expected, (lam.parts, n, k)
        combos += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 600.0
    print(f"A2: PASS - {combos} shape/variable combos, {elapsed:.1f}s")


def test_a3_oracle_equivalence():
    """The flagged-skew route and the set-valued route build the same
    polynomial across the sweep."""
    start = time.perf_counter()
    combos = 0
    for lam, n in sweep_combos():
        assert grothendieck_lenart(lam, n) == grothendieck_setvalued(lam, n), (
            lam.parts,
            n,
        )
        combos += 1
    elapsed = time.perf_counter() - start
    print(f"A3: PASS - {combos} combos agree exactly, {elapsed:.1f}s")


def test_a4_full_snp_via_geometry():
    """Bounding-box sweep with the exact hull oracle: saturated, and the hull
    equals the union of the chain permutahedra."""
    start = time.perf_counter()
    combos = 0
    for lam, n in sweep_combos(max_rows=3, max_part=4, max_n=3):
        verdict = snp_check_bruteforce(grothendieck_lenart(lam, n))
        assert verdict.is_snp, (lam.parts, n, verdict.detail)
        union = set()
        for mu in mu_chain(lam, n).mus:
            union |= permutahedron_lattice_points(Permutahedron.of_partition(mu, n))
        assert verdict.hull_lattice_points == frozenset(union), (lam.parts, n)
        combos += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"A4: PASS - {combos} brute-force verdicts, {elapsed:.1f}s")


def test_a5_claim_a_and_top_degree():
    """Chain shapes dominate their degree layers, and the chain length gives
    the exact top degree (certifying the stopping rule)."""
    start = time.perf_counter()
    for lam, n in sweep_combos():
        assert check_claim_a(lam, n), (lam.parts, n)
        poly = grothendieck_lenart(lam, n)
        assert poly.max_degree() == lam.size() + mu_chain(lam, n).length, (
            lam.parts,
            n,
        )
    elapsed = time.perf_counter() - start
    print(f"A5: PASS - dominance maxima and top degrees certified, {elapsed:.1f}s")


def test_a6_claims_b_c_and_lemmas():
    """On both reference chains: 1000 seeded exact-rational trials of claim b,
    and claim c and the lemmas checked exactly at every vertex of their
    weight polytopes, which decides them for all weights."""
    start = time.perf_counter()
    for parts, n in [((3, 1, 0), 3), ((4, 2, 1, 0), 4)]:
        chain = mu_chain(Partition(parts), n)
        assert check_claim_b(chain, 1000, 2024), parts
        assert check_claim_c(chain, 1000, 2025), parts
        assert check_lemmas_random(chain, 1000, 2026), parts
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(
        f"A6: PASS - 2000 rational trials of claim b; claim c and lemmas exact "
        f"at every vertex, {elapsed:.1f}s"
    )


def test_a7_rado_equivalence():
    """Dominance, lattice-point containment, and vertex hull membership agree
    for every equal-size pair with sizes up to 7, n up to 4."""
    start = time.perf_counter()
    pairs = 0
    for size in range(0, 8):
        shapes = list(partitions_of_size(size, 4, size or 1))
        for n in range(1, 5):
            usable = [p for p in shapes if len(p) <= n]
            cache = {
                p.parts: (
                    permutahedron_lattice_points(Permutahedron.of_partition(p, n)),
                    permutahedron_vertices(Permutahedron.of_partition(p, n)),
                )
                for p in usable
            }
            for theta in usable:
                for delta in usable:
                    dom = rado_contains(theta, delta)
                    sub = cache[theta.parts][0] <= cache[delta.parts][0]
                    cloud = PointCloud(n, frozenset(cache[delta.parts][1]))
                    hull = all(
                        hull_membership(v, cloud) for v in cache[theta.parts][1]
                    )
                    assert dom == sub == hull, (theta.parts, delta.parts, n)
                    pairs += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"A7: PASS - {pairs} containment pairs, {elapsed:.1f}s")


def test_a8_schur_newton_polytope():
    """The support of every Schur polynomial in the sweep is exactly the
    permutahedron of its shape."""
    start = time.perf_counter()
    for lam, n in sweep_combos():
        expected = permutahedron_lattice_points(Permutahedron.of_partition(lam, n))
        assert schur_polynomial(lam, n).support() == expected, (lam.parts, n)
    elapsed = time.perf_counter() - start
    print(f"A8: PASS - Schur supports equal permutahedra, {elapsed:.1f}s")


def test_a9_figure_reproduction(capsys):
    """The figure export lists exactly the lattice points of the four chain
    permutahedra, tagged by degrees 4 through 7."""
    status, out = run_cli(capsys, "figure-data", "--lambda", "3,1,0", "--n", "3")
    assert status == 0
    chain = mu_chain(Partition((3, 1)), 3)
    expected_lines = []
    for k, mu in enumerate(chain.mus):
        points = permutahedron_lattice_points(Permutahedron.of_partition(mu, 3))
        for pt in sorted(points):
            expected_lines.append(f"{pt[0]},{pt[1]},{pt[2]},{4 + k}")
    assert out == "\n".join(expected_lines) + "\n"
    per_degree = {}
    for line in out.strip().split("\n"):
        per_degree[line.rsplit(",", 1)[1]] = per_degree.get(line.rsplit(",", 1)[1], 0) + 1
    assert per_degree == {"4": 12, "5": 12, "6": 7, "7": 3}
    print("A9: PASS - 34 tagged lattice points across degrees 4..7")

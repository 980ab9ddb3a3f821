"""Exact arithmetic for symmetric Grothendieck polynomials and the
saturation of their Newton polytopes."""

from .grothendieck import (
    CheckResult,
    MuChain,
    SchurExpansion,
    check_claim_a,
    check_claim_b,
    check_claim_c,
    check_lemmas_random,
    grothendieck_lenart,
    grothendieck_setvalued,
    mu_chain,
    schur_expansion,
    schur_polynomial,
)
from .partitions import Partition, partitions_in_box, partitions_of_size
from .polynomials import SparsePolynomial
from .polytopes import (
    Permutahedron,
    PointCloud,
    SnpVerdict,
    hull_membership,
    permutahedron_lattice_points,
    permutahedron_vertices,
    rado_contains,
    snp_check_bruteforce,
    snp_check_symmetric_fast,
)

__all__ = [
    "CheckResult",
    "MuChain",
    "Partition",
    "Permutahedron",
    "PointCloud",
    "SchurExpansion",
    "SnpVerdict",
    "SparsePolynomial",
    "check_claim_a",
    "check_claim_b",
    "check_claim_c",
    "check_lemmas_random",
    "grothendieck_lenart",
    "grothendieck_setvalued",
    "hull_membership",
    "mu_chain",
    "partitions_in_box",
    "partitions_of_size",
    "permutahedron_lattice_points",
    "permutahedron_vertices",
    "rado_contains",
    "schur_expansion",
    "schur_polynomial",
    "snp_check_bruteforce",
    "snp_check_symmetric_fast",
]

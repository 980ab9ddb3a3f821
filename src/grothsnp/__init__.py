"""Exact arithmetic for symmetric Grothendieck polynomials and the
saturation of their Newton polytopes.

The names below load with their home module on first use (PEP 562), so
importing the package, or running `python -m grothsnp --help`, compiles no
math layer; `from grothsnp import X` works as before.
"""

_HOMES = {
    "CheckResult": "grothendieck",
    "MuChain": "grothendieck",
    "Partition": "partitions",
    "Permutahedron": "polytopes",
    "PointCloud": "polytopes",
    "SchurExpansion": "grothendieck",
    "SnpVerdict": "polytopes",
    "SparsePolynomial": "polynomials",
    "check_claim_a": "grothendieck",
    "check_claim_b": "grothendieck",
    "check_claim_c": "grothendieck",
    "check_lemmas_random": "grothendieck",
    "grothendieck_lenart": "grothendieck",
    "grothendieck_setvalued": "grothendieck",
    "hull_membership": "polytopes",
    "mu_chain": "grothendieck",
    "partitions_in_box": "partitions",
    "partitions_of_size": "partitions",
    "permutahedron_lattice_points": "polytopes",
    "permutahedron_vertices": "polytopes",
    "rado_contains": "polytopes",
    "schur_expansion": "grothendieck",
    "schur_polynomial": "grothendieck",
    "snp_check_bruteforce": "polytopes",
    "snp_check_symmetric_fast": "polytopes",
}

__all__ = list(_HOMES)


def __getattr__(name: str):
    home = _HOMES.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # An import statement's machinery, which -X importtime reports;
    # importlib.import_module bypasses that report.
    module = __import__(f"{__name__}.{home}", fromlist=[name])
    value = getattr(module, name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))

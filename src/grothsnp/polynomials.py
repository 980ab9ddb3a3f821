"""Sparse multivariate polynomials with exact integer coefficients.

Terms live in a dict from exponent tuple to nonzero coefficient; the
constructor drops zero coefficients, so equal polynomials have equal dicts.
A polynomial is read through its terms, support, degrees and homogeneous
components. Serialization orders terms graded-lexicographically for
reproducible output.
"""

from __future__ import annotations

from typing import Iterator, Mapping

from .partitions import ExponentVector


def _graded_lex_key(exp: ExponentVector) -> tuple:
    return (sum(exp), exp)


class SparsePolynomial:
    """Polynomial in a fixed number of variables with exact integer coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[ExponentVector, int] | None = None):
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        cleaned: dict[ExponentVector, int] = {}
        for exp, coeff in (terms or {}).items():
            if coeff == 0:
                continue
            key = tuple(exp)
            if len(key) != n or min(key, default=0) < 0:
                raise ValueError(f"bad exponent {exp} for ambient {n}")
            cleaned[key] = int(coeff)
        self.n = n
        self._terms = cleaned

    def __add__(self, other: SparsePolynomial) -> SparsePolynomial:
        """Termwise sum. The package itself never adds polynomials; the method
        stays because perfbench/tracing.py wraps it by name."""
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        if self.n != other.n:
            raise ValueError(f"ambient mismatch: {self.n} vs {other.n}")
        acc = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc[exp] = acc.get(exp, 0) + coeff
        return SparsePolynomial(self.n, acc)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, SparsePolynomial)
            and self.n == other.n
            and self._terms == other._terms
        )

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __len__(self) -> int:
        return len(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return f"SparsePolynomial({self.n}, 0)"
        bits = [f"{c}*x^{e}" for e, c in self.sorted_terms()[:4]]
        if len(self._terms) > 4:
            bits.append("...")
        return f"SparsePolynomial({self.n}, {' + '.join(bits)})"

    # -- queries -----------------------------------------------------------

    def items(self) -> Iterator[tuple[ExponentVector, int]]:
        return iter(self._terms.items())

    def sorted_terms(self) -> list[tuple[ExponentVector, int]]:
        """Terms sorted graded-lexicographically by exponent."""
        return sorted(self._terms.items(), key=lambda item: _graded_lex_key(item[0]))

    def support(self) -> set[ExponentVector]:
        """Exponent vectors carrying a nonzero coefficient."""
        return set(self._terms)

    def homogeneous_component(self, k: int) -> SparsePolynomial:
        """Restriction to terms of total degree exactly k."""
        return SparsePolynomial(
            self.n, {e: c for e, c in self._terms.items() if sum(e) == k}
        )

    def degrees(self) -> list[int]:
        """Sorted list of total degrees present."""
        return sorted({sum(e) for e in self._terms})

    def max_degree(self) -> int | None:
        return max((sum(e) for e in self._terms), default=None)

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"exp": list(exp), "coeff": coeff} for exp, coeff in self.sorted_terms()
            ],
        }

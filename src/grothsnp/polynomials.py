"""Sparse multivariate polynomials with exact integer coefficients.

Terms live in a dict from exponent tuple to nonzero coefficient; the
constructor drops zero coefficients, so equal polynomials have equal dicts.
A polynomial is read through its terms, support, degrees and homogeneous
components.
"""

from __future__ import annotations

from operator import index
from typing import Iterator, Mapping

from .partitions import ExponentVector


class SparsePolynomial:
    """Polynomial in a fixed number of variables with exact integer coefficients."""

    __slots__ = ("n", "_terms")

    def __init__(self, n: int, terms: Mapping[ExponentVector, int] | None = None):
        n = index(n)  # an integer variable count, or TypeError
        if n < 0:
            raise ValueError("variable count must be nonnegative")
        cleaned: dict[ExponentVector, int] = {}
        for exp, coeff in (terms or {}).items():
            # Integers only: anything else raises TypeError, not truncated.
            key = tuple(map(index, exp))
            if len(key) != n or min(key, default=0) < 0:
                raise ValueError(f"bad exponent {exp} for ambient {n}")
            coeff = index(coeff)
            if coeff != 0:
                cleaned[key] = coeff
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

    def __len__(self) -> int:  # perfbench/tracing.py counts Lenart terms by it
        return len(self._terms)

    def __repr__(self) -> str:
        if not self._terms:
            return f"SparsePolynomial({self.n}, 0)"
        graded_lex = sorted(self._terms.items(), key=lambda t: (sum(t[0]), t[0]))
        bits = [f"{c}*x^{e}" for e, c in graded_lex[:4]]
        if len(self._terms) > 4:
            bits.append("...")
        return f"SparsePolynomial({self.n}, {' + '.join(bits)})"

    # -- queries -----------------------------------------------------------

    def items(self) -> Iterator[tuple[ExponentVector, int]]:
        return iter(self._terms.items())

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

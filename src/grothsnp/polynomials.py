"""Sparse multivariate polynomials over the integers.

Terms live in a dict from exponent tuple to nonzero coefficient; every
operation purges zero coefficients so the representation stays canonical.
Serialization orders terms graded-lexicographically for reproducible output.
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

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> SparsePolynomial:
        return cls(n, {})

    @classmethod
    def constant(cls, n: int, c: int) -> SparsePolynomial:
        return cls(n, {(0,) * n: c})

    @classmethod
    def one(cls, n: int) -> SparsePolynomial:
        return cls.constant(n, 1)

    @classmethod
    def variable(cls, n: int, i: int) -> SparsePolynomial:
        """The monomial x_i (0-based index)."""
        if not 0 <= i < n:
            raise ValueError(f"variable index {i} out of range for ambient {n}")
        exp = tuple(1 if j == i else 0 for j in range(n))
        return cls(n, {exp: 1})

    @classmethod
    def monomial(cls, n: int, exp: ExponentVector, coeff: int = 1) -> SparsePolynomial:
        return cls(n, {tuple(exp): coeff})

    # -- ring structure ----------------------------------------------------

    def _require_same_ambient(self, other: SparsePolynomial) -> None:
        if self.n != other.n:
            raise ValueError(f"ambient mismatch: {self.n} vs {other.n}")

    def __add__(self, other: SparsePolynomial) -> SparsePolynomial:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._require_same_ambient(other)
        acc = dict(self._terms)
        for exp, coeff in other._terms.items():
            acc[exp] = acc.get(exp, 0) + coeff
        return SparsePolynomial(self.n, acc)

    def __neg__(self) -> SparsePolynomial:
        return SparsePolynomial(self.n, {e: -c for e, c in self._terms.items()})

    def __sub__(self, other: SparsePolynomial) -> SparsePolynomial:
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        return self + (-other)

    def __mul__(self, other) -> SparsePolynomial:
        if isinstance(other, int):
            return self.scale(other)
        if not isinstance(other, SparsePolynomial):
            return NotImplemented
        self._require_same_ambient(other)
        acc: dict[ExponentVector, int] = {}
        for e1, c1 in self._terms.items():
            for e2, c2 in other._terms.items():
                key = tuple(a + b for a, b in zip(e1, e2))
                acc[key] = acc.get(key, 0) + c1 * c2
        return SparsePolynomial(self.n, acc)

    def __rmul__(self, other) -> SparsePolynomial:
        if isinstance(other, int):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: int) -> SparsePolynomial:
        return SparsePolynomial(self.n, {e: c * v for e, v in self._terms.items()})

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

    def coefficient(self, alpha: ExponentVector) -> int:
        if len(alpha) != self.n:
            raise ValueError(f"exponent length {len(alpha)} != ambient {self.n}")
        return self._terms.get(tuple(alpha), 0)

    def homogeneous_component(self, k: int) -> SparsePolynomial:
        """Restriction to terms of total degree exactly k."""
        return SparsePolynomial(
            self.n, {e: c for e, c in self._terms.items() if sum(e) == k}
        )

    def degrees(self) -> list[int]:
        """Sorted list of total degrees present."""
        return sorted({sum(e) for e in self._terms})

    def min_degree(self) -> int | None:
        return min((sum(e) for e in self._terms), default=None)

    def max_degree(self) -> int | None:
        return max((sum(e) for e in self._terms), default=None)

    def is_symmetric(self) -> bool:
        """Invariance under all adjacent variable swaps (hence under S_n)."""
        for i in range(self.n - 1):
            for exp, coeff in self._terms.items():
                swapped = list(exp)
                swapped[i], swapped[i + 1] = swapped[i + 1], swapped[i]
                if self._terms.get(tuple(swapped), 0) != coeff:
                    return False
        return True

    # -- serialization -----------------------------------------------------

    def to_json_dict(self) -> dict:
        return {
            "n": self.n,
            "terms": [
                {"exp": list(exp), "coeff": coeff} for exp, coeff in self.sorted_terms()
            ],
        }

    @classmethod
    def from_json_dict(cls, data: Mapping) -> SparsePolynomial:
        return cls(
            int(data["n"]),
            {tuple(t["exp"]): int(t["coeff"]) for t in data["terms"]},
        )


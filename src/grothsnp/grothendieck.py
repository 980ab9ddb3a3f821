"""Symmetric Grothendieck polynomials, two independent ways, plus the greedy
box-adding partition chain and the majorization checks built on it.

The Schur-basis route expands G through signed counts of flagged strictly
increasing skew tableaux, counted label by label for all shapes in one pass;
the set-valued route sums signed monomials over set-valued semistandard
tableaux. The two must agree exactly, which is the suite's strongest oracle.
Since G is symmetric, the verification battery compares them at dominant
contents only, where each route has a branching count of its own; the full
monomial expansions serve `groth`, the brute-force geometry and the tests.

A memo keyed by (lambda, n) keeps its last entry only: every check of a
pair asks for that pair, and no pair reads another's, so a sweep holds one
pair's results at a time. schur_polynomial keeps all its entries, because it
is keyed by Schur shape and the expansions of different pairs share shapes.
"""

from __future__ import annotations

from functools import lru_cache
from itertools import accumulate
from typing import TYPE_CHECKING, Sequence

from .partitions import ExponentVector, Frozen, Partition, dominance_leq, majorizes
from .polynomials import SparsePolynomial
from .tableaux import (
    gelfand_tsetlin_contents,
    lenart_shape_counts,
    set_valued_contents,
    set_valued_dominant_contents,
    ssyt_contents,
)

if TYPE_CHECKING:
    from .partitions import RationalVector


class CheckResult(Frozen):
    """Outcome of a verification run; falsy results carry a witness message."""

    __slots__ = ("ok", "detail")

    def __init__(self, ok: bool, detail: str = "") -> None:
        super().__init__(ok, detail)

    def __bool__(self) -> bool:
        return self.ok


class SchurExpansion(Frozen):
    """Schur coefficients of a symmetric Grothendieck polynomial.

    Stored as (shape, coefficient) pairs sorted by (size, parts); every
    coefficient is nonzero and carries the sign (-1)^(extra boxes).
    """

    __slots__ = ("lam", "n", "terms")

    def __init__(
        self, lam: Partition, n: int, terms: tuple[tuple[Partition, int], ...]
    ) -> None:
        super().__init__(lam, n, terms)
        base = lam.size()
        for mu, coeff in terms:
            if coeff == 0:
                raise ValueError("expansion must not store zero coefficients")
            if len(mu) > n or not mu.contains(lam):
                raise ValueError(f"shape {mu.parts} outside the admissible range")
            if any(mu.part(i) > lam.part(i) + i - 1 for i in range(1, len(mu) + 1)):
                raise ValueError(f"shape {mu.parts} violates the row growth bound")
            if coeff * (-1) ** (mu.size() - base) <= 0:
                raise ValueError(f"coefficient sign broken at {mu.parts}")
        if self.coefficient(lam) != 1:
            raise ValueError("leading coefficient must be 1")

    def coefficient(self, mu: Partition) -> int:
        for shape, coeff in self.terms:
            if shape == mu:
                return coeff
        return 0

    def to_json_dict(self) -> dict:
        return {
            "lambda": list(self.lam.parts),
            "n": self.n,
            "terms": [
                {"mu": list(mu.parts), "coeff": coeff} for mu, coeff in self.terms
            ],
        }


class MuChain(Frozen):
    """The greedy chain of partitions obtained by repeatedly adding one box.

    Step k adds a box to the northmost row r (within 1..n) whose surplus over
    the base shape is still below r-1 and where the result stays a Young
    diagram; the chain stops when no row qualifies. rows[k-1] records the row
    receiving box k (1-based). The validator is this step-by-step rule, so it
    re-checks the closed form that mu_chain builds.
    """

    __slots__ = ("lam", "n", "mus", "rows")

    def __init__(
        self,
        lam: Partition,
        n: int,
        mus: tuple[Partition, ...],
        rows: tuple[int, ...],
    ) -> None:
        super().__init__(lam, n, mus, rows)
        if len(self.lam) > self.n:
            raise ValueError("base shape has more rows than the ambient allows")
        if len(self.mus) != len(self.rows) + 1 or self.mus[0] != self.lam:
            raise ValueError("chain must start at the base shape")
        for k, r in enumerate(self.rows, start=1):
            prev = self.mus[k - 1]
            if not (1 <= r <= self.n):
                raise ValueError(f"step {k} adds outside rows 1..{self.n}")
            if prev.part(r) - self.lam.part(r) >= r - 1:
                raise ValueError(f"step {k} exceeds the surplus budget of row {r}")
            if self.mus[k] != prev.add_box(r):
                raise ValueError(f"step {k} is not a single added box in row {r}")
            if any(
                prev.part(s) - self.lam.part(s) < s - 1 and prev.can_add_box(s)
                for s in range(1, r)
            ):
                raise ValueError(f"step {k} skipped a qualifying northern row")
        last = self.mus[-1]
        if any(
            last.part(r) - self.lam.part(r) < r - 1 and last.can_add_box(r)
            for r in range(1, self.n + 1)
        ):
            raise ValueError("chain stopped while a row still qualifies")

    @property
    def length(self) -> int:
        """N, the number of boxes added on top of the base shape."""
        return len(self.rows)

    def extra_boxes(self) -> tuple[int, ...]:
        """Per-row surplus of the final shape over the base, rows 1..n."""
        final = self.mus[-1]
        return tuple(final.part(r) - self.lam.part(r) for r in range(1, self.n + 1))

    def to_json_dict(self) -> dict:
        return {
            "mus": [list(mu.padded(self.n)) for mu in self.mus],
            "rows": list(self.rows),
        }


# -- expansion through flagged skew tableaux ---------------------------------


@lru_cache(maxsize=1)
def schur_expansion(lam: Partition, n: int) -> SchurExpansion:
    """Expand the Grothendieck polynomial of lam over the Schur basis."""
    if len(lam) > n:
        raise ValueError(f"shape {lam.parts} has more rows than variables ({n})")
    base = lam.size()
    terms = [
        (Partition(shape), (-1) ** (sum(shape) - base) * count)
        for shape, count in lenart_shape_counts(lam, n).items()
    ]
    terms.sort(key=lambda item: (item[0].size(), item[0].parts))
    return SchurExpansion(lam=lam, n=n, terms=tuple(terms))


@lru_cache(maxsize=None)
def schur_polynomial(mu: Partition, n: int) -> SparsePolynomial:
    """Monomial expansion of the Schur polynomial: sum over SSYT contents."""
    return SparsePolynomial(n, ssyt_contents(mu, n))


@lru_cache(maxsize=1)
def grothendieck_lenart(lam: Partition, n: int) -> SparsePolynomial:
    """Grothendieck polynomial assembled from its Schur expansion."""
    acc: dict[tuple[int, ...], int] = {}
    for mu, coeff in schur_expansion(lam, n).terms:
        for w, count in schur_polynomial(mu, n).items():
            acc[w] = acc.get(w, 0) + coeff * count
    return SparsePolynomial(n, acc)


def grothendieck_setvalued(lam: Partition, n: int) -> SparsePolynomial:
    """Grothendieck polynomial as the signed series over set-valued tableaux.

    A tableau with m labels in total contributes (-1)^(m - |lam|) times its
    content monomial. This full expansion is the tests' reference for the
    set-valued dominant terms; the package itself reads those only.
    """
    if len(lam) > n:
        raise ValueError(f"shape {lam.parts} has more rows than variables ({n})")
    return SparsePolynomial(n, set_valued_contents(lam, n))


# -- dominant terms -------------------------------------------------------------
#
# G_lambda is symmetric, so its terms at weakly decreasing exponents (dominant
# contents) fix all others. Each model computes them by its own technique; the
# two share no code.


@lru_cache(maxsize=1)
def grothendieck_lenart_dominant(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """The terms of grothendieck_lenart(lam, n) at weakly decreasing exponents,
    as a dict from exponent to nonzero coefficient: sum_mu c_mu K_{mu,nu} over
    the Schur expansion, all shapes in one pass. The dict is memoised, so
    callers must not mutate it."""
    tops = {mu.padded(n): coeff for mu, coeff in schur_expansion(lam, n).terms}
    return gelfand_tsetlin_contents(tops)


def grothendieck_setvalued_dominant(lam: Partition, n: int) -> dict[ExponentVector, int]:
    """The terms of grothendieck_setvalued(lam, n) at weakly decreasing
    exponents, as a dict from exponent to nonzero coefficient, by
    label-by-label branching. Callers must not mutate it, as they must not
    mutate the Lenart side's memoised dict."""
    if len(lam) > n:
        raise ValueError(f"shape {lam.parts} has more rows than variables ({n})")
    return set_valued_dominant_contents(lam, n)


# -- the greedy chain ---------------------------------------------------------


@lru_cache(maxsize=1)
def mu_chain(lam: Partition, n: int) -> MuChain:
    """Greedy chain of box additions, northmost qualifying row first.

    In closed form: for r = 2..n in turn, add boxes to row r while its
    surplus is below r-1 and the row above is longer. The top shape
    exhausts the degree range of the Grothendieck polynomial.
    """
    if len(lam) > n:
        raise ValueError(f"shape {lam.parts} has more rows than variables ({n})")
    mus = [lam]
    rows: list[int] = []
    # A box in row r changes only whether rows r and r + 1 qualify, so the
    # northmost qualifying row never moves north, and row 1 never qualifies.
    for r in range(2, n + 1):
        while mus[-1].part(r) - lam.part(r) < r - 1 and mus[-1].can_add_box(r):
            mus.append(mus[-1].add_box(r))
            rows.append(r)
    return MuChain(lam=lam, n=n, mus=tuple(mus), rows=tuple(rows))


# -- dominance and majorization checks ----------------------------------------


def check_claim_a(lam: Partition, n: int) -> CheckResult:
    """Each chain shape dominates every same-size shape in the expansion,
    carries a nonzero coefficient itself, and nothing lives beyond the chain.
    """
    expansion = schur_expansion(lam, n)
    chain = mu_chain(lam, n)
    base = lam.size()
    for mu, _ in expansion.terms:
        k = mu.size() - base
        if k > chain.length:
            return CheckResult(False, f"coefficient at {mu.parts} beyond top degree")
        if not dominance_leq(mu, chain.mus[k]):
            return CheckResult(
                False, f"{mu.parts} not dominated by {chain.mus[k].parts} at k={k}"
            )
    coefficients = dict(expansion.terms)
    for k, mu in enumerate(chain.mus):
        if not coefficients.get(mu):
            return CheckResult(False, f"chain shape {mu.parts} missing at k={k}")
    return CheckResult(True)


def _as_fractions(numerators: Sequence[int], denominator: int) -> RationalVector:
    from fractions import Fraction

    return tuple(Fraction(x, denominator) for x in numerators)


def check_claim_b(chain: MuChain) -> CheckResult:
    """Convex mixes of points of the chain's permutahedra are majorized by the
    matching mix of the chain shapes themselves, for all points and weights.

    This is the Minkowski-sum fact P(a) + P(b) = P(a + b) for dominant
    weights. For x_k in P(mu^(k)) and weights c_k, the sum of the j largest
    entries of sum c_k x_k is at most sum c_k top_j(x_k), and by Rado
    (x_k is majorized by mu^(k)) at most sum c_k p_j(mu^(k)), the j-th
    prefix sum of the shape mix. So the claim holds iff every rearrangement
    of each mu^(k) is majorized by mu^(k), which Rado's theorem (1952) says
    of every weight. Each shape is checked against its reversal, which
    majorizes has to sort; the parts of a Partition weakly decrease, so the
    check passes on every chain, planted ones included, and cannot fail.
    """
    for k, mu in enumerate(chain.mus):
        shape = mu.padded(chain.n)
        if not majorizes(shape, shape[::-1]):
            return CheckResult(
                False, f"k={k}: rearrangement {shape[::-1]} escapes shape {shape}"
            )
    return CheckResult(True)


def check_claim_c(chain: MuChain) -> CheckResult:
    """A convex mix of chain shapes with integer surplus K is majorized by the
    K-th chain shape, for all such weights.

    A mix of weakly decreasing vectors is weakly decreasing, so for each row
    r the claim reads sum_k c_k p_r(k) <= p_r(K), with p_r(k) the r-th prefix
    sum of mu^(k), for weights c with sum c = 1 and sum k*c_k = K; at r = n
    it is an equality, since |mu^(k)| = |lambda| + k is linear in k. The
    weights form a polytope Q_K whose vertices are e_K and, for i < K < j,
    the mix ((j - K)*e_i + (K - i)*e_j)/(j - i), at which the inequality says
    that k -> p_r(k) lies on or above its chord from i to j at K. A sequence
    does so for every chord iff it is discretely concave, so the claim holds
    for all weights iff mu^(K-1) + mu^(K+1) is majorized by 2*mu^(K) for
    0 < K < N: the vertices (K-1, K, K+1), checked in integers.
    """
    padded = [mu.padded(chain.n) for mu in chain.mus]
    for surplus in range(1, chain.length):
        mixed = [a + b for a, b in zip(padded[surplus - 1], padded[surplus + 1])]
        if not majorizes([2 * x for x in padded[surplus]], mixed):
            return CheckResult(
                False,
                f"vertex K={surplus}, i={surplus - 1}, j={surplus + 1}: mix "
                f"{_as_fractions(mixed, 2)} escapes chain shape at K={surplus}",
            )
    return CheckResult(True)


def check_lemmas_random(chain: MuChain) -> CheckResult:
    """The prefix-sum identities along the chain, for all convex weights c.

    First identity: for each row r, the mix of chain shapes with weights c
    has prefix sum base_r + sum_k min(k, l)*c_k, where base_r is the base
    shape's prefix sum and l the index of the last box placed in rows 1..r
    (the steps landing there form a prefix of the chain because the
    receiving rows weakly increase). Both sides are affine in c, so it holds
    for every c iff it holds at the N+1 unit vectors: the k-th shape's
    prefix sum at row r is base_r + min(k, l). Second identity: for r
    strictly north of the row receiving box k, the k-th shape's prefix sum
    is base_r + (b_1+...+b_r), with b_i the final surplus of row i.
    """
    n = chain.n
    base = list(accumulate(chain.lam.padded(n)))
    grown = list(accumulate(chain.extra_boxes()))
    lasts = [
        max((k for k, row in enumerate(chain.rows, start=1) if row <= r), default=0)
        for r in range(1, n + 1)
    ]
    for k, mu in enumerate(chain.mus):
        north = chain.rows[k - 1] if k else 1
        for r, direct in enumerate(accumulate(mu.padded(n)), start=1):
            closed = base[r - 1] + min(k, lasts[r - 1])
            if direct != closed:
                return CheckResult(
                    False, f"first identity at k={k}, row {r}: {direct} != {closed}"
                )
            closed = base[r - 1] + grown[r - 1]
            if r < north and direct != closed:
                return CheckResult(
                    False, f"second identity at k={k}, row {r}: {direct} != {closed}"
                )
    return CheckResult(True)

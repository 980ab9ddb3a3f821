"""Spans around the public functions of each grothsnp layer, installed from outside.

Modules import their collaborators by name, so a function is wrapped where
its callers look it up: every `grothsnp` module (and the sweep script) that
binds the original object gets the same wrapper. Methods are wrapped on their
class. A span's self time is its duration minus the time covered by spans
opened inside it; spans are aggregated by name in memory and written out
once, when the run ends.
"""

from __future__ import annotations

import functools
from collections import Counter
from math import prod
from time import perf_counter
from types import ModuleType
from typing import Callable, Iterable


class Tracer:
    def __init__(self) -> None:
        self._open: list[list[float]] = []  # child time of each open span, innermost last
        self.self_s: Counter = Counter()
        self.total_s: Counter = Counter()
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()

    def _enter(self) -> tuple[list[float], float]:
        frame = [0.0]
        self._open.append(frame)
        return frame, perf_counter()

    def _leave(self, name: str, frame: list[float], start: float) -> None:
        elapsed = perf_counter() - start
        self._open.pop()
        self.self_s[name] += elapsed - frame[0]
        self.total_s[name] += elapsed
        self.calls[name] += 1
        if self._open:
            self._open[-1][0] += elapsed

    def function(self, name: str, fn: Callable, on_result: Callable | None = None) -> Callable:
        """One span per call; on_result(counts, args, result) records work counts."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame, start = self._enter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self._leave(name, frame, start)
            if on_result is not None:
                on_result(self.counts, args, result)
            return result

        return wrapper

    def generator(self, name: str, fn: Callable) -> Callable:
        """One span per resumption of the generator, so the consumer's own work
        between items is not charged to it; counts the items yielded."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            while True:
                frame, start = self._enter()
                try:
                    item = next(items)
                except StopIteration:
                    return
                finally:
                    self._leave(name, frame, start)
                self.counts[name + ".yielded"] += 1
                yield item

        return wrapper

    def spans(self) -> dict:
        return {
            name: {"calls": self.calls[name], "total_s": self.total_s[name], "self_s": self.self_s[name]}
            for name in sorted(self.calls)
        }


def _count_terms(counts: Counter, args: tuple, result) -> None:
    counts["grothendieck.grothendieck_lenart.terms"] += len(result)


def _count_points(counts: Counter, args: tuple, result) -> None:
    counts["polytopes.permutahedron_lattice_points.points"] += len(result)


def _count_box(counts: Counter, args: tuple, result) -> None:
    support = args[0].support()
    n = args[0].n
    counts["polytopes.snp_check_bruteforce.box_points"] += prod(
        max(pt[i] for pt in support) - min(pt[i] for pt in support) + 1 for i in range(n)
    )


def _count_certified(counts: Counter, args: tuple, result) -> None:
    counts["exactlp.convex_certificate.certified"] += result is not None


def install(tracer: Tracer, modules: Iterable[ModuleType]) -> None:
    """Wrap every traced function at each of its lookup sites in `modules`."""
    from grothsnp import cli, exactlp, grothendieck, partitions, polynomials, polytopes, tableaux

    functions = [
        ("partitions.convex_combination", partitions.convex_combination, None),
        ("partitions.majorizes", partitions.majorizes, None),
        ("grothendieck.schur_expansion", grothendieck.schur_expansion, None),
        ("grothendieck.schur_polynomial", grothendieck.schur_polynomial, None),
        ("grothendieck.grothendieck_lenart", grothendieck.grothendieck_lenart, _count_terms),
        ("grothendieck.grothendieck_setvalued", grothendieck.grothendieck_setvalued, None),
        ("grothendieck.check_claim_a", grothendieck.check_claim_a, None),
        ("grothendieck.check_claim_b", grothendieck.check_claim_b, None),
        ("grothendieck.check_claim_c", grothendieck.check_claim_c, None),
        ("grothendieck.check_lemmas_random", grothendieck.check_lemmas_random, None),
        ("polytopes.permutahedron_lattice_points", polytopes.permutahedron_lattice_points, _count_points),
        ("polytopes.snp_check_symmetric_fast", polytopes.snp_check_symmetric_fast, None),
        ("polytopes.snp_check_bruteforce", polytopes.snp_check_bruteforce, _count_box),
        ("polytopes.hull_membership", polytopes.hull_membership, None),
        ("exactlp.convex_certificate", exactlp.convex_certificate, _count_certified),
        ("cli.run", cli.run, None),
    ]
    generators = [
        ("tableaux.enumerate_ssyt", tableaux.enumerate_ssyt),
        ("tableaux.enumerate_lenart_tableaux", tableaux.enumerate_lenart_tableaux),
        ("tableaux.enumerate_set_valued", tableaux.enumerate_set_valued),
    ]
    wrappers = {id(fn): tracer.function(name, fn, hook) for name, fn, hook in functions}
    wrappers.update({id(fn): tracer.generator(name, fn) for name, fn in generators})
    for module in modules:
        for attr, value in list(vars(module).items()):
            if id(value) in wrappers:
                setattr(module, attr, wrappers[id(value)])
    poly = polynomials.SparsePolynomial
    poly.__add__ = tracer.function("polynomials.add", poly.__add__)
    poly.homogeneous_component = tracer.function(
        "polynomials.homogeneous_component", poly.homogeneous_component
    )


TIMED = [
    "partitions.convex_combination", "partitions.majorizes",
    "tableaux.enumerate_ssyt", "tableaux.enumerate_lenart_tableaux", "tableaux.enumerate_set_valued",
    "polynomials.add", "polynomials.homogeneous_component",
    "grothendieck.schur_expansion", "grothendieck.schur_polynomial",
    "grothendieck.grothendieck_lenart", "grothendieck.grothendieck_setvalued",
    "grothendieck.check_claim_a", "grothendieck.check_claim_b", "grothendieck.check_claim_c",
    "grothendieck.check_lemmas_random",
    "polytopes.permutahedron_lattice_points", "polytopes.snp_check_symmetric_fast",
    "polytopes.snp_check_bruteforce", "exactlp.convex_certificate", "cli.run",
]
CALLED = [
    "partitions.convex_combination", "partitions.majorizes", "polynomials.add",
    "polytopes.permutahedron_lattice_points", "polytopes.hull_membership",
    "exactlp.convex_certificate",
]
COUNTED = [
    "tableaux.enumerate_ssyt.yielded", "tableaux.enumerate_lenart_tableaux.yielded",
    "tableaux.enumerate_set_valued.yielded", "grothendieck.grothendieck_lenart.terms",
    "polytopes.permutahedron_lattice_points.points", "polytopes.snp_check_bruteforce.box_points",
    "exactlp.convex_certificate.certified",
]


def layer_metrics(tracer: Tracer, rounds: int, cache_hits: int, cache_misses: int) -> dict[str, float]:
    """Per-round values of every per-layer metric except the overhead ratio."""
    values = {f"{name}.s": tracer.self_s[name] for name in TIMED}
    values.update({f"{name}.calls": tracer.calls[name] for name in CALLED})
    values.update({name: tracer.counts[name] for name in COUNTED})
    values["grothendieck.schur_polynomial.hits"] = cache_hits
    values["grothendieck.schur_polynomial.misses"] = cache_misses
    values = {name: value / rounds for name, value in values.items()}
    lookups = cache_hits + cache_misses
    values["grothendieck.schur_polynomial.hit_ratio"] = cache_hits / lookups if lookups else 0.0
    box = values["polytopes.snp_check_bruteforce.box_points"]
    values["exactlp.lp_per_box_point"] = values["exactlp.convex_certificate.calls"] / box if box else 0.0
    return values

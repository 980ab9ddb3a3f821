"""The immutable value types keep the behaviour of frozen dataclasses.

Each type is a __slots__ class on the shared Frozen base. Its twin here is a
frozen dataclass of the same name and fields, built without validation, which
gives the reference hash and repr; equality, immutability, the refusal to
pickle or copy and keyword construction are checked directly. One table,
REFUSALS, pins every ValueError and IndexError that the package raises by
its exact message, and a parse of the package finds any it lacks.
"""

import ast
import copy
import dataclasses
import itertools
import pickle

import pytest
from conftest import ROOT

from grothsnp import (
    CheckResult,
    MuChain,
    Partition,
    Permutahedron,
    PointCloud,
    SchurExpansion,
    SnpVerdict,
    SparsePolynomial,
    battery,
    hull_membership,
    mu_chain,
    schur_expansion,
    snp_check_bruteforce,
)
from grothsnp.exactlp import convex_certificate
from grothsnp.partitions import Frozen, convex_combination, majorizes
from grothsnp.tableaux import enumerate_lenart_tableaux


def samples():
    """(one valid value, another valid value of the same class)."""
    p21, p31 = Partition((2, 1)), Partition((3, 1))
    return [
        (Partition((3, 1, 0)), Partition((3,))),
        (CheckResult(True), CheckResult(False, "trial 3: escapes")),
        (schur_expansion(p21, 3), schur_expansion(p31, 3)),
        (mu_chain(p31, 3), mu_chain(p31, 4)),
        (Permutahedron((3, 1, 0)), Permutahedron((2, 1))),
        (PointCloud(2, frozenset({(1, 0), (0, 1)})), PointCloud(1, frozenset())),
        (
            SnpVerdict(True, hull_lattice_points=frozenset({(1, 0), (0, 1)})),
            SnpVerdict(
                False,
                violation=(1, 1),
                detail="lattice point (1, 1) lies in the hull but not the support",
            ),
        ),
    ]


IDS = [type(a).__name__ for a, _ in samples()]


def fields(value) -> tuple:
    return tuple(getattr(value, name) for name in type(value).__slots__)


def twin(value):
    """A frozen dataclass of the same name and field values."""
    cls = type(value)
    ref = dataclasses.make_dataclass(cls.__name__, cls.__slots__, frozen=True)
    return ref(*fields(value))


def test_seven_value_types_share_the_base():
    assert len(set(IDS)) == 7
    assert all(isinstance(a, Frozen) for a, _ in samples())


@pytest.mark.parametrize("pair", samples(), ids=IDS)
class TestContract:
    def test_equality_is_same_class_and_equal_fields(self, pair):
        a, b = pair
        cls = type(a)
        assert a == cls(*fields(a)) and not a != cls(*fields(a))
        assert a != b
        assert a != twin(a)
        assert a.__eq__(fields(a)) is NotImplemented

    def test_hash_is_the_field_tuple_hash(self, pair):
        for value in pair:
            assert hash(value) == hash(fields(value)) == hash(twin(value))

    def test_repr(self, pair):
        for value in pair:
            if type(value) is Partition:
                assert repr(value) == f"Partition({value.parts!r})"
            else:
                assert repr(value) == repr(twin(value))

    def test_assignment_and_deletion_raise(self, pair):
        a, _ = pair
        for name in (*type(a).__slots__, "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, None)
            with pytest.raises(AttributeError):
                delattr(a, name)
        assert not hasattr(a, "__dict__")

    @pytest.mark.parametrize("refuse", [pickle.dumps, copy.copy, copy.deepcopy])
    def test_pickling_and_copying_raise(self, pair, refuse):
        a, _ = pair
        with pytest.raises(TypeError, match=rf"\b{type(a).__qualname__}$"):
            refuse(a)

    def test_keyword_construction(self, pair):
        for value in pair:
            cls = type(value)
            assert cls(**dict(zip(cls.__slots__, fields(value)))) == value


def test_partition_equality_sees_the_stripped_parts():
    assert Partition((3, 1, 0)) == Partition((3, 1))
    assert hash(Partition((3, 1, 0))) == hash(((3, 1),))
    assert Partition((0, 0)) == Partition() == Partition(())
    assert repr(Partition([2, 2, 0])) == "Partition((2, 2))"


def test_defaults():
    assert fields(CheckResult(True)) == (True, "")
    assert fields(SnpVerdict(False)) == (False, None, frozenset(), "")
    assert Partition().parts == ()


def test_value_types_are_hashable_in_sets_and_dicts():
    values = [a for a, _ in samples()]
    rebuilt = [type(v)(*fields(v)) for v in values]  # equal, not the same object
    assert all(a is not b for a, b in zip(values, rebuilt))
    assert len(set(values + rebuilt)) == len(values)
    assert {v: i for i, v in enumerate(values)}[rebuilt[3]] == 3


def test_checkresult_truth_follows_ok():
    assert CheckResult(True) and not CheckResult(False, "x")


P = Partition
CHAIN_31 = mu_chain(P((3, 1)), 3)


# Each refusal of the library, as (build, its exact message). Each raises
# ValueError but those in INDEX_ERRORS, which raise IndexError.
REFUSALS = [
    (lambda: P((2.5, 1)), "partition parts must be integers: 2.5"),
    (lambda: P((1, -1)), "partition parts must be nonnegative: (1, -1)"),
    (lambda: P((1, 2)), "partition parts must be weakly decreasing: (1, 2)"),
    (
        lambda: SchurExpansion(P((1,)), 2, ((P((1,)), 1), (P((2,)), 0))),
        "expansion must not store zero coefficients",
    ),
    (
        lambda: SchurExpansion(P((1,)), 2, ((P((1,)), 1), (P((1, 1, 1)), 1))),
        "shape (1, 1, 1) outside the admissible range",
    ),
    (
        lambda: SchurExpansion(P((1,)), 2, ((P((1,)), 1), (P((2,)), -1))),
        "shape (2,) violates the row growth bound",
    ),
    (
        lambda: SchurExpansion(P((1,)), 2, ((P((1,)), 1), (P((1, 1)), 1))),
        "coefficient sign broken at (1, 1)",
    ),
    (lambda: SchurExpansion(P((1,)), 2, ((P((1,)), 2),)), "leading coefficient must be 1"),
    (
        lambda: MuChain(P((1, 1, 1)), 2, (P((1, 1, 1)),), ()),
        "partition (1, 1, 1) has more than 2 rows",
    ),
    (lambda: MuChain(P((3, 1)), 3, (P((3, 2)),), ()), "chain must start at the base shape"),
    (lambda: MuChain(P((1,)), 1, (P((1,)), P((1, 1))), (2,)), "step 1 adds outside rows 1..1"),
    (
        lambda: MuChain(P((1,)), 2, (P((1,)), P((2,))), (1,)),
        "step 1 exceeds the surplus budget of row 1",
    ),
    (
        lambda: MuChain(P((1,)), 2, (P((1,)), P((1,))), (2,)),
        "step 1 is not a single added box in row 2",
    ),
    (
        lambda: MuChain(P((3, 1)), 3, (P((3, 1)), P((3, 1, 1))), (3,)),
        "step 1 skipped a qualifying northern row",
    ),
    (
        lambda: MuChain(P((3, 1)), 3, CHAIN_31.mus[:2], CHAIN_31.rows[:1]),
        "chain stopped while a row still qualifies",
    ),
    (lambda: Permutahedron((1, -1)), "weight coordinates must be nonnegative"),
    (lambda: Permutahedron((0, 1)), "weight must be weakly decreasing"),
    (
        lambda: PointCloud(2, frozenset({(1, 0), (1,)})),
        "all points must have the cloud's dimension",
    ),
    (lambda: P((1,)).part(0), "row index must be >= 1, got 0"),
    (lambda: P((2, 2)).add_box(2), "cannot add a box to row 2 of (2, 2)"),
    (lambda: majorizes((2, 1, 0), (4, 0, -1)), "majorization requires nonnegative entries"),
    (lambda: majorizes((2, 1, 0), (1, 1, 0)), "majorization undefined across unequal sums"),
    (lambda: convex_combination((1,), ((1, 0), (0, 1))), "one weight per vector required"),
    (lambda: convex_combination((3, -1), ((1, 0), (0, 1))), "convex weights must be nonnegative"),
    (lambda: convex_combination((0,), ((1, 0),)), "convex weights must have a positive total"),
    (lambda: convex_combination((1, 1), ((1, 0), (0, 1, 0))), "vectors must share a common length"),
    (lambda: SparsePolynomial(-1), "variable count must be nonnegative"),
    (lambda: SparsePolynomial(2, {(1, 0, 0): 1}), "bad exponent (1, 0, 0) for ambient 2"),
    (lambda: SparsePolynomial(1) + SparsePolynomial(2), "ambient mismatch: 1 vs 2"),
    (
        lambda: hull_membership((0, 0), PointCloud(2, frozenset())),
        "hull membership against an empty cloud",
    ),
    (
        lambda: hull_membership((1, 1, 1), PointCloud(2, frozenset({(0, 0)}))),
        "query point dimension does not match the cloud",
    ),
    (lambda: snp_check_bruteforce(SparsePolynomial(2)), "zero polynomial has no Newton polytope"),
    (
        lambda: convex_certificate([(1, 0), (0, 1, 0)], (1, 0)),
        "all points must share the target's dimension",
    ),
    (lambda: list(enumerate_lenart_tableaux(P((2, 2)), P((3, 1)), 3)), "not a skew shape"),
    (lambda: battery.run_check("nope", P((1,)), 1), "unknown check 'nope'"),
]
INDEX_ERRORS = {"row index must be >= 1, got 0"}


def error_of(message):
    return IndexError if message in INDEX_ERRORS else ValueError


@pytest.mark.parametrize(
    "build, message",
    [
        *REFUSALS,
        # mus and rows of unequal length, the other half of the base-shape
        # check, whose message already names a row's id
        pytest.param(
            lambda: MuChain(P((3, 1)), 3, CHAIN_31.mus[:-1], CHAIN_31.rows),
            "chain must start at the base shape",
            id="<lambda>-chain must start at the base shape, one shape short",
        ),
    ],
)
def test_every_value_error(build, message):
    with pytest.raises((ValueError, IndexError)) as caught:
        build()
    assert type(caught.value) is error_of(message)
    assert str(caught.value) == message


def raised_head(node) -> str | None:
    """'ValueError: head' for a `raise ValueError(...)` whose message starts
    with the literal text head, and likewise for IndexError; None for any
    other node."""
    if not isinstance(node, ast.Raise) or not isinstance(node.exc, ast.Call):
        return None
    error = getattr(node.exc.func, "id", None)
    if error not in ("ValueError", "IndexError"):
        return None
    message = node.exc.args[0] if node.exc.args else None
    parts = message.values if isinstance(message, ast.JoinedStr) else [message]
    literal = [getattr(part, "value", None) for part in parts]
    head = "".join(itertools.takewhile(lambda value: isinstance(value, str), literal))
    return f"{error}: {head}" if head else f"{error} without a literal message"


def test_every_raise_of_the_package_has_a_row():
    # A ValueError or IndexError of the package whose literal head no row of
    # REFUSALS produces is a refusal that the table misses.
    pinned = [f"{error_of(message).__name__}: {message}" for _, message in REFUSALS]
    unpinned = [
        f"{path.name}:{node.lineno}: {head}"
        for path in sorted((ROOT / "src" / "grothsnp").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (head := raised_head(node)) and not any(row.startswith(head) for row in pinned)
    ]
    assert not unpinned


@pytest.mark.parametrize(
    "build",
    [
        lambda: SparsePolynomial(2.0, {(1, 0): 1}),
        lambda: PointCloud(2.0, frozenset({(1, 0), (0, 1)})),
        lambda: SchurExpansion(P((1,)), 2.0, ((P((1,)), 1),)),
        lambda: MuChain(P((1,)), 2.0, (P((1,)), P((1, 1))), (2,)),
    ],
    ids=["SparsePolynomial", "PointCloud", "SchurExpansion", "MuChain"],
)
def test_float_variable_count_is_refused(build):
    # 2.0 compares equal to 2, so only reading n as an integer refuses it.
    with pytest.raises(TypeError):
        build()

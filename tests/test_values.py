"""The immutable value types keep the behaviour of frozen dataclasses.

Each type is a __slots__ class on the shared Frozen base. Its twin here is a
frozen dataclass of the same name and fields, built without validation, which
gives the reference hash and repr; equality, immutability, the refusal to
pickle or copy, every ValueError and keyword construction are checked
directly.
"""

import copy
import dataclasses
import pickle

import pytest

from grothsnp import (
    CheckResult,
    MuChain,
    Partition,
    Permutahedron,
    PointCloud,
    SchurExpansion,
    SnpVerdict,
    SparsePolynomial,
    mu_chain,
    schur_expansion,
)
from grothsnp.partitions import Frozen


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


@pytest.mark.parametrize(
    "build, message",
    [
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
        (
            lambda: SchurExpansion(P((1,)), 2, ((P((1,)), 2),)),
            "leading coefficient must be 1",
        ),
        (
            lambda: MuChain(P((1, 1, 1)), 2, (P((1, 1, 1)),), ()),
            "partition (1, 1, 1) has more than 2 rows",
        ),
        (
            lambda: MuChain(P((3, 1)), 3, (P((3, 2)),), ()),
            "chain must start at the base shape",
        ),
        (
            lambda: MuChain(P((1,)), 1, (P((1,)), P((1, 1))), (2,)),
            "step 1 adds outside rows 1..1",
        ),
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
    ],
)
def test_every_value_error(build, message):
    with pytest.raises(ValueError) as caught:
        build()
    assert str(caught.value) == message


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

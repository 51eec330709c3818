"""What the value types keep: immutability, equality and hashing by type
and fields, the ``Name(field=value, ...)`` repr, and their constructor
signatures; plus a guard that importing the CLI loads no class-generation
or typing machinery."""

from __future__ import annotations

import inspect
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hodgeslope.gallery import GalleryEntry
from hodgeslope.hn_profiles import HNProfile, HNValidation
from hodgeslope.hodge_system import Answer, Declared, HodgeSystem, Isomorphisms, Verdict
from hodgeslope.inequalities import InequalityCheck, SequencePair
from hodgeslope.oper import ConnectionPair, GriffithsFiltration, OperCheck
from hodgeslope.profiles import SubsystemProfile
from hodgeslope.slope_core import BundleData, GeometricContext

SRC = Path(__file__).resolve().parent.parent / "src"
EMPTY = inspect.Parameter.empty

CTX = GeometricContext(0, 1, 2, omega_semistable=True)
CTX2 = GeometricContext(5, 1, 2)
LINE = BundleData(1, 0)
PROFILE = SubsystemProfile(((1, 0),))
SYSTEM = HodgeSystem(CTX, (LINE,), Declared())
FILTRATION = GriffithsFiltration(CTX, (LINE,), True, True, False)

# class -> fields in order as (name, value, another valid value, default)
CASES = {
    BundleData: [
        ("rank", 2, 3, EMPTY),
        ("degree", 3, 4, EMPTY),
        ("semistable", None, True, None),
        ("stable", None, False, None),
    ],
    GeometricContext: [
        ("characteristic", 0, 5, EMPTY),
        ("dim", 1, 2, EMPTY),
        ("omega_degree", 2, 3, EMPTY),
        ("omega_semistable", True, False, False),
        ("omega_stable", False, True, False),
    ],
    SubsystemProfile: [("entries", ((1, 0),), ((1, 1),), EMPTY)],
    Isomorphisms: [],
    Declared: [("profiles", (), (PROFILE,), ())],
    HodgeSystem: [
        ("context", CTX, CTX2, EMPTY),
        ("components", (LINE,), (BundleData(1, 1),), EMPTY),
        ("theta", Declared(), Declared((PROFILE,)), Isomorphisms()),
    ],
    Verdict: [
        ("semistable", Answer.YES, Answer.UNKNOWN, Answer.UNKNOWN),
        ("stable", Answer.UNKNOWN, Answer.NO, Answer.UNKNOWN),
        ("certificate", None, PROFILE, None),
        ("provenance", "", "oracle", ""),
    ],
    SequencePair: [
        ("a", (Fraction(1),), (Fraction(3),), EMPTY),
        ("b", (Fraction(2),), (Fraction(4),), EMPTY),
    ],
    InequalityCheck: [
        ("holds", True, False, EMPTY),
        ("lhs", Fraction(1), Fraction(0), EMPTY),
        ("rhs", Fraction(2), Fraction(3), EMPTY),
    ],
    GriffithsFiltration: [
        ("context", CTX, CTX2, EMPTY),
        ("graded", (LINE,), (BundleData(1, 1),), EMPTY),
        ("transversal", True, False, EMPTY),
        ("theta_squares_to_zero", True, False, EMPTY),
        ("theta_iso", False, True, EMPTY),
    ],
    ConnectionPair: [
        ("total", LINE, BundleData(1, 1), EMPTY),
        ("flat", True, False, EMPTY),
        ("filtration", None, FILTRATION, None),
    ],
    OperCheck: [
        ("ok", True, False, EMPTY),
        ("reasons", (), ("filtration is not transversal",), ()),
        ("classical", False, True, False),
    ],
    GalleryEntry: [
        ("name", "a", "b", EMPTY),
        ("system", SYSTEM, HodgeSystem(CTX2, (LINE,), Declared()), EMPTY),
        ("declared_subobject", None, PROFILE, EMPTY),
        ("expected", Verdict(), Verdict(provenance="oracle"), EMPTY),
    ],
    HNValidation: [("valid", True, False, EMPTY), ("first_violation", None, 0, None)],
    HNProfile: [
        ("quotients", (BundleData(1, 0, True),), (BundleData(1, 1, True),), EMPTY)
    ],
}

CLASSES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def build(cls, **changed):
    return cls(**{name: changed.get(name, value) for name, value, _, _ in CASES[cls]})


def test_every_value_type_is_covered():
    assert len(CASES) == 15


@CLASSES
def test_signature(cls):
    params = inspect.signature(cls).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        (name, default) for name, _, _, default in CASES[cls]
    ]
    values = [value for _, value, _, _ in CASES[cls]]
    assert cls(*values) == build(cls)
    assert [getattr(build(cls), name) for name, _, _, _ in CASES[cls]] == values


@CLASSES
def test_fields_cannot_be_assigned_or_deleted(cls):
    obj = build(cls)
    for name, value, other, _ in CASES[cls]:
        with pytest.raises(AttributeError):
            setattr(obj, name, other)
        with pytest.raises(AttributeError):
            delattr(obj, name)
        assert getattr(obj, name) == value
    with pytest.raises(AttributeError):
        obj.unlisted = 1
    assert obj == build(cls)


@CLASSES
def test_equality_and_hash_follow_type_and_fields(cls):
    obj, twin = build(cls), build(cls)
    assert obj == twin and not obj != twin
    assert hash(obj) == hash(twin)
    assert hash(obj) == hash(tuple(value for _, value, _, _ in CASES[cls]))
    for name, _, other, _ in CASES[cls]:
        changed = build(cls, **{name: other})
        assert changed != obj and not changed == obj
    subclass = type("Sub" + cls.__name__, (cls,), {})
    assert subclass(**{name: value for name, value, _, _ in CASES[cls]}) != obj
    assert obj != object()


@CLASSES
def test_repr_names_every_field(cls):
    fields = ", ".join(f"{name}={value!r}" for name, value, _, _ in CASES[cls])
    assert repr(build(cls)) == f"{cls.__name__}({fields})"


def test_repr_matches_the_dataclass_form():
    assert repr(BundleData(2, 3, stable=True)) == (
        "BundleData(rank=2, degree=3, semistable=True, stable=True)"
    )
    assert repr(Isomorphisms()) == "Isomorphisms()"


def test_cli_import_loads_no_class_generation_or_typing_machinery():
    # -S as in a cold command-line process: site-packages may import these
    # modules on their own
    heavy = ("dataclasses", "typing", "pathlib", "inspect")
    code = f"import sys, hodgeslope.cli; print(*[m for m in {heavy!r} if m in sys.modules])"
    env = dict(os.environ, PYTHONPATH=str(SRC))
    done = subprocess.run(
        [sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.split() == []

"""What the value types keep: immutability, equality and hashing by type
and fields, the ``Name(field=value, ...)`` repr, their constructor
signatures, and which keys a document type's reader requires; plus
guards that importing the CLI loads no class-generation or typing
machinery and that each command runs only its own modules."""

from __future__ import annotations

import inspect
from fractions import Fraction

import pytest

from hodgeslope.gallery import GalleryEntry
from hodgeslope.hn_profiles import HNProfile
from hodgeslope.hodge_system import (
    ISOMORPHISMS,
    NO,
    UNKNOWN,
    YES,
    HodgeSystem,
    Verdict,
    system_from_json,
    system_to_json,
)
from hodgeslope.inequalities import InequalityCheck, SequencePair
from hodgeslope.oper import ConnectionPair, GriffithsFiltration, OperCheck, pair_from_json
from hodgeslope.profiles import SubsystemProfile
from hodgeslope.slope_core import BundleData, GeometricContext

from support import (
    curve, filtration_to_json, pair_to_json, run_python, semistable_tower, write_doc,
)

EMPTY = inspect.Parameter.empty

CTX = GeometricContext(0, 1, 2, omega_semistable=True)
CTX2 = GeometricContext(5, 1, 2)
LINE = BundleData(1, 0)
PROFILE = SubsystemProfile(((1, 0),))
SYSTEM = HodgeSystem(CTX, (LINE,), ())
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
    HodgeSystem: [
        ("context", CTX, CTX2, EMPTY),
        ("components", (LINE,), (BundleData(1, 1),), EMPTY),
        ("theta", (), (PROFILE,), ISOMORPHISMS),
    ],
    Verdict: [
        ("semistable", YES, UNKNOWN, UNKNOWN),
        ("stable", UNKNOWN, NO, UNKNOWN),
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
        ("context", None, CTX, None),
    ],
    OperCheck: [
        ("reasons", (), ("filtration is not transversal",), ()),
        ("classical", False, True, False),
    ],
    GalleryEntry: [
        ("system", SYSTEM, HodgeSystem(CTX2, (LINE,), ()), EMPTY),
        ("expected", Verdict(), Verdict(provenance="oracle"), EMPTY),
    ],
    HNProfile: [
        ("quotients", (BundleData(1, 0, True),), (BundleData(1, 1, True),), EMPTY)
    ],
}

CLASSES = pytest.mark.parametrize("cls", list(CASES), ids=lambda cls: cls.__name__)


def build(cls, **changed):
    return cls(**{name: changed.get(name, value) for name, value, _, _ in CASES[cls]})


def test_every_value_type_is_covered():
    assert len(CASES) == 12


@CLASSES
def test_signature(cls):
    params = inspect.signature(cls).parameters
    assert [(p.name, p.default) for p in params.values()] == [
        (name, default) for name, _, _, default in CASES[cls]
    ]
    values = [value for _, value, _, _ in CASES[cls]]
    assert cls(*values) == build(cls)
    assert [getattr(build(cls), name) for name, _, _, _ in CASES[cls]] == values


CONTEXT_DOC = {
    "characteristic": 0, "dim": 1, "omega_degree": 2, "omega_semistable": True,
    "omega_stable": False,
}
LINE_DOC = {"rank": 1, "degree": 0}
FILTRATION_DOC = {
    "context": CONTEXT_DOC, "graded": [LINE_DOC], "transversal": True,
    "theta_squares_to_zero": True, "theta_iso": False,
}
# document type -> its reader and a document giving every field
DOCUMENTS = {
    BundleData: (
        BundleData.from_json, {"rank": 2, "degree": 3, "semistable": True, "stable": True}
    ),
    GeometricContext: (GeometricContext.from_json, CONTEXT_DOC),
    HodgeSystem: (
        system_from_json,
        {"context": CONTEXT_DOC, "components": [LINE_DOC], "theta": {"declared": []}},
    ),
    GriffithsFiltration: (GriffithsFiltration.from_json, FILTRATION_DOC),
    ConnectionPair: (
        pair_from_json,
        {"total": LINE_DOC, "flat": True, "filtration": FILTRATION_DOC, "context": CONTEXT_DOC},
    ),
}
#: A constructor default that a document may not leave out: theta is
#: written in every hodge_system document.
REQUIRED_DESPITE_DEFAULT = {(HodgeSystem, "theta")}


@pytest.mark.parametrize("cls", list(DOCUMENTS), ids=lambda cls: cls.__name__)
def test_required_keys_follow_the_constructor(cls):
    read, doc = DOCUMENTS[cls]
    assert list(doc) == list(cls._fields)
    for name, _, _, default in CASES[cls]:
        partial = {key: value for key, value in doc.items() if key != name}
        if default is EMPTY or (cls, name) in REQUIRED_DESPITE_DEFAULT:
            with pytest.raises(ValueError, match=rf" is missing field\(s\): {name}$"):
                read(partial)
        else:
            assert isinstance(read(partial), cls), name


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


def test_cli_import_loads_no_class_generation_or_typing_machinery():
    # -S as in a cold command-line process: site-packages may import these
    # modules on their own.  Slopes are integer pairs, so nothing loads
    # fractions (with its decimal and numbers), and no command, not even
    # verify-inequalities, loads the inequalities module.  The sweep's
    # report goes to a buffer, so stdout holds only the loaded names.
    heavy = (
        "dataclasses", "typing", "pathlib", "inspect", "argparse", "gettext",
        "fractions", "decimal", "numbers", "hodgeslope.inequalities",
    )
    loaded = f"print(*[m for m in {heavy!r} if m in sys.modules])"
    sweep = (
        "sys.stdout = io.StringIO(); "
        "assert hodgeslope.cli.main(['verify-inequalities', '--d-max', '1', '--n-max', '2']) == 0; "
        "sys.stdout = sys.__stdout__; "
    )
    for run in ("", sweep):
        done = run_python("-S", "-c", f"import io, sys, hodgeslope.cli; {run}{loaded}")
        assert (done.returncode, done.stdout.split()) == (0, []), (run, done.stderr)


TOWER = {"hodge_system": system_to_json(semistable_tower(1, 0, CTX, 1))}
HN_LINE = BundleData(1, 0, semistable=True).to_json()
# a command line, its document's payload or None, and the modules cli
# defers that the command runs
COMMAND_MODULES = [
    (None, None, ()),
    (["verify-inequalities", "--d-max", "1", "--n-max", "2"], None, ()),
    (["check-system"], TOWER, ("search_oracle",)),
    (["search"], TOWER, ("search_oracle",)),
    (["check-oper"], {"griffiths_filtration": filtration_to_json(FILTRATION)}, ("oper",)),
    (
        ["check-connection"],
        {"connection_pair": pair_to_json(ConnectionPair(BundleData(3, 0), True, context=curve(2)))},
        ("oper",),
    ),
    (["hn-tensor"], {"hn_request": {"profile": [HN_LINE], "tensor_with": HN_LINE}}, ("hn_profiles",)),
    (["gallery", "strictly-semistable"], None, ("gallery", "search_oracle")),
]


@pytest.mark.parametrize(
    "argv, payload, runs", COMMAND_MODULES,
    ids=[argv[0] if argv else "import" for argv, _, _ in COMMAND_MODULES],
)
def test_each_command_runs_only_its_own_modules(argv, payload, runs, tmp_path):
    # -S as above.  cli registers each deferred module without running it;
    # LazyLoader gives a module back the plain module type once it has
    # run.  The command's reports go to a buffer, so stdout holds its exit
    # code and the names of the modules that ran.
    deferred = ("gallery", "hn_profiles", "oper", "search_oracle")
    command = "code = 0; "
    if argv is not None:
        if payload is not None:
            argv = [*argv, write_doc(tmp_path, payload)]
        command = (
            "sys.stdout = sys.stderr = io.StringIO(); "
            f"code = hodgeslope.cli.main({argv!r}); "
            "sys.stdout, sys.stderr = sys.__stdout__, sys.__stderr__; "
        )
    ran = (
        f"print(code, *[m for m in {deferred!r} "
        "if type(sys.modules['hodgeslope.' + m]) is types.ModuleType])"
    )
    done = run_python("-S", "-c", f"import io, sys, types, hodgeslope.cli; {command}{ran}")
    assert (done.returncode, done.stdout.split()) == (0, ["0", *runs]), done.stderr

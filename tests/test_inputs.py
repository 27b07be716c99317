"""The input types share one ``__repr__``, ``__eq__``, ``__hash__``,
``__setattr__`` and ``__delattr__`` (``core._input``), and act as the
``@dataclass(frozen=True)`` they were.

For each dataclass in the package a plain frozen-dataclass twin is built
from its ``dataclasses.fields``.  An input and its twin, holding the same
field values, give the same repr string and the same outcome (a value or
the exception's type) for ``==``, ``!=`` and ``hash`` on equal and unequal
pairs.  No field sets ``repr``, ``compare`` or ``hash``, since the shared
methods take every field.  Against another class ``__eq__`` returns
``NotImplemented``; and ``dataclasses.replace`` and ``fields`` work.

The shared setter is write-once, where a frozen dataclass refuses every
write: ``__init__`` sets each field through it, and it refuses a name that
is set already or is not a field.  So the tests that could tell the two
apart are here: setting or deleting a field raises
``FrozenInstanceError``, as on the twin, and so does setting a name that is
no field; every field is in the instance's ``__dict__`` once it is built,
which the setter's rule relies on; and ``copy.copy``, ``copy.deepcopy`` and
a pickle round trip, which fill ``__dict__`` without the setter, keep every
field value and give a copy that still refuses assignment and deletion.

The range rules have one owner each: every "must be finite" and "must be
positive and finite" message in the package comes from ``core._finite`` or
``core._positive``, apart from a named list of checks worded that way for a
reason.
"""

import ast
import copy
import dataclasses
import pickle
from pathlib import Path

import numpy as np
import pytest

import linpot
from linpot import (
    Absorber,
    BarrierSpec,
    GaussianSpec,
    Linear,
    PiecewiseLinear,
    PsgGeometry,
    SgSpec,
    SolverConfig,
    SpatialGrid,
    SpinDensity,
    SpinorPacket,
    UnitSystem,
    WaveFunction,
    sample_gaussian,
)
from linpot.config import ExperimentConfig, PotentialSpec, ScanSpec
from linpot.verify import CheckResult, Gate

from conftest import package_dataclasses

GRID = SpatialGrid(-16.0, 16.0, 64)
PSI = sample_gaussian(GaussianSpec(), GRID)
# complex already, so both densities built from it hold this very array
RHO = np.array([[0.75, 0.25j], [-0.25j, 0.25]])
GATE = Gate("l2", 1e-12, "<=", 1e-10)

# per input type, a call that builds two unequal instances; calling it
# again builds equal, distinct ones (an array field is shared, since two
# arrays compare elementwise and a tuple of them has no truth value)
SAMPLES = {
    UnitSystem: lambda: (UnitSystem(1.0, 2.0), UnitSystem(1.0, 3.0)),
    SpatialGrid: lambda: (SpatialGrid(-16.0, 16.0, 64), SpatialGrid(-16.0, 16.0, 128)),
    WaveFunction: lambda: (WaveFunction(GRID, PSI.amps), WaveFunction(GRID, PSI.amps, 1.0)),
    GaussianSpec: lambda: (GaussianSpec(0.0, 1.0, 2.0), GaussianSpec(0.0, 1.0, 3.0)),
    Linear: lambda: (Linear(2.0), Linear(2.0, 1.0)),
    PiecewiseLinear: lambda: (
        PiecewiseLinear(((0.0, 1.0), (1.0, 2.0))),
        PiecewiseLinear(((0.0, 1.0), (2.0, 2.0))),
    ),
    Absorber: lambda: (Absorber(0.1, 2.0), Absorber(0.2, 2.0)),
    SolverConfig: lambda: (SolverConfig(1e-3, 10), SolverConfig(1e-3, 10, Absorber())),
    BarrierSpec: lambda: (BarrierSpec(0.0, 2.0, 5.0), BarrierSpec(0.0, 2.0, 5.0, 1.0)),
    SpinorPacket: lambda: (SpinorPacket(PSI, PSI), SpinorPacket(PSI, PSI, "x")),
    SpinDensity: lambda: (SpinDensity(RHO), SpinDensity(RHO, (1.0, -1.0))),
    PsgGeometry: lambda: (PsgGeometry(1.0, 1.0, 1.0), PsgGeometry(1.0, 1.0, 1.0, 2.0)),
    SgSpec: lambda: (SgSpec(1.0, 1.0), SgSpec(1.0, 1.0, -1)),
    PotentialSpec: lambda: (PotentialSpec("linear", 1.0), PotentialSpec()),
    ScanSpec: lambda: (ScanSpec((0.0, 1.0)), ScanSpec(sigmas=(1.0,))),
    ExperimentConfig: lambda: (ExperimentConfig(), ExperimentConfig(grid_n=1024)),
    Gate: lambda: (Gate("l2", 1e-12, "<=", 1e-10), Gate("l2", 1e-12, "<", 1e-10)),
    CheckResult: lambda: (CheckResult("c01", (GATE,)), CheckResult("c01", (GATE,), seconds=1.0)),
}
TYPES = sorted(SAMPLES, key=lambda cls: cls.__name__)


def twin_type(cls):
    """A plain frozen dataclass with ``cls``'s name and fields."""
    twin = dataclasses.make_dataclass(
        cls.__name__,
        [
            (f.name, f.type, dataclasses.field(repr=f.repr, hash=f.hash, compare=f.compare))
            for f in dataclasses.fields(cls)
        ],
        frozen=True,
    )
    twin.__qualname__ = cls.__qualname__
    return twin


def twin_of(obj, twin):
    return twin(**{f.name: getattr(obj, f.name) for f in dataclasses.fields(obj)})


def outcome(call, *args):
    """(the value, None) or (None, the type of what it raised)."""
    try:
        return call(*args), None
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return None, type(exc)


def test_every_package_dataclass_has_samples():
    assert sorted(package_dataclasses()) == [cls.__name__ for cls in TYPES]


def test_fields_keep_the_default_repr_compare_and_hash():
    # the shared methods show, compare and hash every field
    custom = [
        f"{cls.__name__}.{f.name}"
        for cls in TYPES
        for f in dataclasses.fields(cls)
        if not (f.repr and f.compare and f.hash is None)
    ]
    assert custom == []


@pytest.fixture(params=TYPES, ids=lambda cls: cls.__name__)
def cases(request):
    """(a, an equal a, an unequal c) of one input type, and the twin type."""
    make = SAMPLES[request.param]
    (a, c), (b, _) = make(), make()
    return a, b, c, twin_type(request.param)


def test_repr_matches_the_generated_one(cases):
    a, _, c, twin = cases
    for obj in (a, c):
        assert repr(obj) == repr(twin_of(obj, twin))


def test_comparison_and_hash_match_the_generated_ones(cases):
    a, b, c, twin = cases
    assert a is not b
    assert a == b and not a != b
    assert a != c and not a == c
    for x, y in ((a, b), (a, c), (c, a)):
        tx, ty = twin_of(x, twin), twin_of(y, twin)
        assert outcome(lambda: x == y) == outcome(lambda: tx == ty)
        assert outcome(lambda: x != y) == outcome(lambda: tx != ty)
        assert outcome(hash, x) == outcome(hash, tx)
    assert outcome(hash, a) == outcome(hash, b)


def test_other_classes_are_not_implemented(cases):
    a, _, _, twin = cases
    for other in (object(), twin_of(a, twin), (a,)):
        assert a.__eq__(other) is NotImplemented
        assert a != other


def test_fields_are_frozen(cases):
    a, _, c, _ = cases
    name = dataclasses.fields(a)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(a, name, getattr(c, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(a, name)


def test_other_names_are_frozen_too(cases):
    a, _, _, twin = cases
    for obj in (a, twin_of(a, twin)):
        with pytest.raises(dataclasses.FrozenInstanceError):
            obj.not_a_field = 1.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del obj.not_a_field
    assert "not_a_field" not in vars(a)


def test_init_sets_every_field_on_the_instance(cases):
    # the setter refuses a name already in __dict__, so no field may be left
    # to a class attribute
    a, _, c, _ = cases
    for obj in (a, c):
        assert {f.name for f in dataclasses.fields(obj)} <= vars(obj).keys()


def same(x, y) -> bool:
    """``x == y``, elementwise for an array and field by field for an input."""
    if isinstance(x, np.ndarray):
        return type(y) is np.ndarray and x.dtype == y.dtype and np.array_equal(x, y)
    if dataclasses.is_dataclass(x):
        return type(y) is type(x) and all(
            same(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x)
        )
    return x == y


@pytest.mark.parametrize(
    "duplicate",
    [copy.copy, copy.deepcopy, lambda obj: pickle.loads(pickle.dumps(obj))],
    ids=["copy", "deepcopy", "pickle"],
)
def test_copies_keep_the_fields_and_stay_frozen(cases, duplicate):
    a, _, c, _ = cases
    dup = duplicate(a)
    assert same(dup, a)
    name = dataclasses.fields(a)[0].name
    with pytest.raises(dataclasses.FrozenInstanceError):
        setattr(dup, name, getattr(c, name))
    with pytest.raises(dataclasses.FrozenInstanceError):
        delattr(dup, name)


def test_replace_and_fields_work(cases):
    a, b, c, twin = cases
    assert [f.name for f in dataclasses.fields(a)] == [f.name for f in dataclasses.fields(twin)]
    assert dataclasses.replace(a) == b
    changed = {f.name: getattr(c, f.name) for f in dataclasses.fields(c)}
    assert dataclasses.replace(a, **changed) == c


# the functions that own the range rules, with the end of their message
RANGE_OWNERS = {
    ("core", "_finite", " must be finite"),
    ("core", "_positive", " must be positive and finite"),
}
# (module, function, message) of each range message written out by hand
HAND_WRITTEN = {
    ("core", "PiecewiseLinear.__post_init__", "breakpoints must be finite"): (
        "the knots are checked as one array, not as named values"
    ),
    ("cli", "_load", "--dt: must be positive and finite, got "): (
        "a flag, not a field: its message is keyed by the flag, as a config "
        "key's is by the key"
    ),
}
RANGE_TEXTS = (" must be finite", " must be positive and finite")


def range_messages(tree):
    """(qualified name of the enclosing function, text) of every string in
    ``tree`` that states a range rule: a constant, or any part of an
    f-string, holding one of ``RANGE_TEXTS``.  Docstrings are not
    messages."""
    docstrings = {
        id(node.body[0].value)
        for node in ast.walk(tree)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and isinstance(node.body[0], ast.Expr)
        and isinstance(node.body[0].value, ast.Constant)
    }
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                visit(child, (*scope, child.name))
                continue
            if (
                isinstance(child, ast.Constant)
                and isinstance(child.value, str)
                and id(child) not in docstrings
                and any(text in child.value for text in RANGE_TEXTS)
            ):
                found.append((".".join(scope), child.value))
            visit(child, scope)

    visit(tree, ())
    return found


def test_range_guard_reads_every_part_of_a_message():
    # a message that goes on past its rule is found; a docstring is not
    tree = ast.parse(
        'def f(x):\n    """x must be finite."""\n'
        '    raise ValueError(f"x must be finite, got {x!r}")\n'
    )
    assert range_messages(tree) == [("f", "x must be finite, got ")]


def test_range_rules_have_one_owner():
    package = Path(linpot.__file__).parent
    found = {
        (path.stem, scope, text)
        for path in sorted(package.glob("*.py"))
        for scope, text in range_messages(ast.parse(path.read_text()))
    }
    assert found - RANGE_OWNERS - set(HAND_WRITTEN) == set()
    assert RANGE_OWNERS | set(HAND_WRITTEN) <= found

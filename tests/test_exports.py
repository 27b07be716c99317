"""Every name a linpot module exports in ``__all__`` resolves and has a
reader outside the tests, so does every field of an exported record, and
every defaulted parameter of an exported callable is set by some call.

A stale entry (a name whose definition was deleted or renamed) breaks
``from linpot.<module> import *`` only when someone runs it; this finds it
at test time, module by module.  An export that nothing in the package or
its benchmark reads, a record field that nothing there reads as an attribute
or names as a string, and a parameter that no call in the package, its tests
or its benchmark passes, are code nothing needs; each is either deleted or
listed below with the reason it stays.
"""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import linpot
from linpot import config

ROOT = Path(__file__).parents[1]

MODULES = ["linpot"] + [
    f"linpot.{info.name}" for info in pkgutil.iter_modules(linpot.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_export_resolves(name):
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


def test_top_level_names_are_the_modules_exports():
    # linpot's names are those of the modules it star-imports, each the
    # module's own object, so no second list can drift from theirs
    modules = [
        importlib.import_module(f"linpot.{name}")
        for name in ("analytic", "core", "devices", "oracle", "tunneling")
    ]
    assert set(linpot.__all__) == set().union(*(m.__all__ for m in modules))
    for module in modules:
        for name in module.__all__:
            assert getattr(linpot, name) is getattr(module, name)


def test_modules_are_found():
    assert {"linpot.analytic", "linpot.tunneling", "linpot.verify"} <= set(MODULES)


UNREAD_ALLOWED = {
    "to_momentum_rep": "the momentum representation of a state, for callers",
    "to_position_rep": "the inverse of to_momentum_rep",
    "gaussian_width_at": "the reference free-spreading width law",
    "convergence_study": "the solver's measured convergence order, for callers",
    "wkb_transmission": "the semiclassical T of a potential, beside wkb_sigma_R",
}


def _package_nodes():
    """Every AST node of the package and its benchmark."""
    for top in ("src", "benchmarks"):
        for path in sorted((ROOT / top).rglob("*.py")):
            yield from ast.walk(ast.parse(path.read_text()))


def _read_names():
    """Every name read, as a Name or as an Attribute, in the package or its
    benchmark; an import is not a read."""
    read = set()
    for node in _package_nodes():
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            read.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
    return read


def test_every_export_has_a_reader_outside_the_tests():
    exported = set()
    for name in MODULES:
        exported.update(getattr(importlib.import_module(name), "__all__", ()))
    assert exported - _read_names() == set(UNREAD_ALLOWED)


FIELD_UNREAD_ALLOWED = {
    ("EvolutionResult", "ledger"): "the closed form's phase ledger, for callers",
    ("ConvergenceStudy", "entries"): "the (dt, error) pairs the slope is fitted to",
    ("TunnelingResult", "t_a_measured"): "the measured arrival at the front, for callers",
    ("TunnelingResult", "t_a_linear"): "the linear-front arrival prediction beside it",
}


def test_every_record_field_has_a_reader_outside_the_tests():
    # a field is read as an attribute, or named as a string for a getattr
    read = set()
    for node in _package_nodes():
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            read.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            read.add(node.value)
    unread = set()
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            record = getattr(module, attr)
            if isinstance(record, type) and issubclass(record, tuple) and record.__module__ == name:
                unread.update((attr, f) for f in record._fields if f not in read)
    assert unread == set(FIELD_UNREAD_ALLOWED)


UNITS = "physics entry points take a unit system by the package's convention"
UNSET_ALLOWED = {
    ("linpot.devices.sg_apply", "units"): UNITS,
    ("linpot.oracle.convergence_study", "units"): UNITS,
    ("linpot.tunneling.run_tunneling", "units"): UNITS,
    ("linpot.tunneling.wkb_transmission", "units"): UNITS,
}


def _public_callables():
    """(qualified name, called name, callable, takes self) for each exported
    function and class of a linpot module and each public method of those
    classes."""
    for name in MODULES[1:]:
        module = importlib.import_module(name)
        for attr in getattr(module, "__all__", ()):
            obj = getattr(module, attr)
            if not callable(obj) or obj.__module__ != name:
                continue
            yield f"{name}.{attr}", attr, obj, False
            if inspect.isclass(obj):
                for method, raw in vars(obj).items():
                    bound = not isinstance(raw, (staticmethod, classmethod))
                    func = raw if bound else raw.__func__
                    if not method.startswith("_") and inspect.isfunction(func):
                        yield f"{name}.{attr}.{method}", method, func, bound


def _calls():
    """{called name: [(positional count, has *args, keywords)]} over every
    call in the package, its tests and its benchmark; a ``**kwargs`` call
    has ``None`` among its keywords."""
    calls = {}
    for top in ("src", "benchmarks", "tests"):
        for path in sorted((ROOT / top).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text())):
                if not isinstance(node, ast.Call):
                    continue
                func = node.func
                called = getattr(func, "id", None) or getattr(func, "attr", None)
                star = any(isinstance(a, ast.Starred) for a in node.args)
                keywords = {k.arg for k in node.keywords}
                calls.setdefault(called, []).append((len(node.args), star, keywords))
    return calls


def test_every_defaulted_parameter_is_set_somewhere():
    calls = _calls()
    # record and input fields are also set by the keywords of a
    # ``replace``/``_replace`` copy, and config fields by their config keys
    copied = {k for c in ("replace", "_replace") for _, _, kw in calls.get(c, ()) for k in kw}
    from_config = {
        (cls.__name__, field) for _, cls, keys, _ in config._TABLE if cls
        for _, field in keys.values()
    }
    unset = set()
    for qualified, called, func, bound in _public_callables():
        params = list(inspect.signature(func).parameters.values())[bound:]
        for i, p in enumerate(params):
            if p.default is p.empty or p.kind in (p.VAR_POSITIONAL, p.VAR_KEYWORD):
                continue
            by_position = p.kind != p.KEYWORD_ONLY
            if inspect.isclass(func) and (p.name in copied or (called, p.name) in from_config):
                continue
            if not any(
                (by_position and (n > i or star)) or p.name in kw or None in kw
                for n, star, kw in calls.get(called, ())
            ):
                unset.add((qualified, p.name))
    assert unset == set(UNSET_ALLOWED)

"""Every cross-reference in linpot's source names something that exists:
each qualified ``module._name`` of a linpot module, and each ``:func:``,
``:class:`` and ``:meth:`` role, in docstrings and comments alike.

A qualified reference resolves from the module it names.  A role resolves
from the namespace of any linpot module, so an error class that a module
raises without importing it resolves too; a ``:meth:`` with no class in
front resolves when some class of the module it is written in has the
attribute.
"""

import importlib
import inspect
import re
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "linpot"
MODULES = sorted(p.stem for p in SRC.glob("*.py") if p.stem != "__init__")
QUALIFIED = re.compile(r"``(" + "|".join(MODULES) + r")\.(\w+(?:\.\w+)*)")
ROLE = re.compile(r":(func|class|meth):`~?([\w.]+)`")


def _resolves(namespace, dotted):
    obj = namespace
    for part in dotted.split("."):
        if not hasattr(obj, part):
            return False
        obj = getattr(obj, part)
    return True


def _stale(module_name, text):
    """(line number, reference) of each reference in ``text``, the source
    of linpot module ``module_name``, that does not resolve."""
    namespaces = [importlib.import_module(f"linpot.{m}") for m in MODULES]
    module = importlib.import_module(f"linpot.{module_name}")
    classes = [obj for obj in vars(module).values() if inspect.isclass(obj)]
    out = []
    for number, line in enumerate(text.splitlines(), 1):
        for target, name in QUALIFIED.findall(line):
            if not _resolves(namespaces[MODULES.index(target)], name):
                out.append((number, f"``{target}.{name}``"))
        for role, name in ROLE.findall(line):
            ok = any(_resolves(namespace, name) for namespace in namespaces)
            if role == "meth" and "." not in name:
                ok = ok or any(hasattr(cls, name) for cls in classes)
            if not ok:
                out.append((number, f":{role}:`{name}`"))
    return out


@pytest.mark.parametrize("module_name", MODULES)
def test_references_resolve(module_name):
    assert _stale(module_name, (SRC / f"{module_name}.py").read_text()) == []


def test_the_scan_finds_references_and_flags_stale_ones():
    text = "".join((SRC / f"{m}.py").read_text() for m in MODULES)
    assert len(QUALIFIED.findall(text)) >= 10 and len(ROLE.findall(text)) >= 30
    stale = (
        "``core._no_such_table`` and ``core._kinetic``\n"
        ":func:`_no_such_table`, :meth:`_Propagator.step`, :meth:`no_such_method`,\n"
        ":class:`Trajectory` and :meth:`advance`\n"
    )
    assert _stale("oracle", stale) == [
        (1, "``core._no_such_table``"),
        (2, ":func:`_no_such_table`"),
        (2, ":meth:`_Propagator.step`"),
        (2, ":meth:`no_such_method`"),
    ]

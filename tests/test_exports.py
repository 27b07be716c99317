"""Every name a linpot module exports in ``__all__`` resolves.

A stale entry (a name whose definition was deleted or renamed) breaks
``from linpot.<module> import *`` only when someone runs it; this finds it
at test time, module by module.
"""

import importlib
import pkgutil

import pytest

import linpot

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

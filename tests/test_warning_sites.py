"""Every warning linpot raises goes through ``errors._warn``, which
attributes it to the first frame outside the library: no module calls
``warnings.warn`` itself or counts a ``stacklevel`` of its own.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parents[1] / "src" / "linpot"
MODULES = sorted(p.name for p in SRC.glob("*.py"))


def _sites(text):
    """(line, what) of each ``warnings.warn`` call (``warn`` imported from
    ``warnings`` included) and each ``stacklevel=`` keyword in the source
    ``text``, outside a function named ``_warn``."""
    tree = ast.parse(text)
    warns = {
        alias.asname or alias.name
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "warnings"
        for alias in node.names
        if alias.name == "warn"
    }
    exempt = {
        id(inner)
        for node in ast.walk(tree)
        if isinstance(node, ast.FunctionDef) and node.name == "_warn"
        for inner in ast.walk(node)
    }
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call) or id(node) in exempt:
            continue
        f = node.func
        if (
            isinstance(f, ast.Attribute)
            and f.attr == "warn"
            and isinstance(f.value, ast.Name)
            and f.value.id == "warnings"
        ) or (isinstance(f, ast.Name) and f.id in warns):
            found.append((node.lineno, "warnings.warn"))
        found += [(k.value.lineno, "stacklevel=") for k in node.keywords if k.arg == "stacklevel"]
    return sorted(found)


@pytest.mark.parametrize("module", MODULES)
def test_warnings_are_raised_only_through_errors_warn(module):
    assert _sites((SRC / module).read_text()) == []


def test_the_scan_finds_every_site_outside_warn():
    text = (
        "import warnings\n"
        "from warnings import warn as _w\n"
        "def sample():\n"
        "    warnings.warn('thin grid', stacklevel=2)\n"
        "def solver():\n"
        "    _w('boundary', UserWarning)\n"
        "def elsewhere(log):\n"
        "    log('edge', stacklevel=3)\n"
        "def _warn(message):\n"
        "    warnings.warn(message, stacklevel=5)\n"
    )
    assert _sites(text) == [
        (4, "stacklevel="),
        (4, "warnings.warn"),
        (6, "warnings.warn"),
        (8, "stacklevel="),
    ]
    # errors.py's own call is the one the exemption lets through
    errors = (SRC / "errors.py").read_text()
    assert len(_sites(errors.replace("def _warn(", "def _not_warn("))) == 2

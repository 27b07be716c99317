"""What a linpot process loads: importing the CLI must not pull in the
scipy package, since linpot loads only scipy's pocketfft extension and
reads scipy's version from its ``version.py`` when a command writes
``run.json``; nor the scipy.fft package (nor the scipy.special its fftlog
backend brings), and a later ``import
scipy.fft`` in the same process must still transform bit for bit as linpot
does.  Nor must it pull in scipy.integrate (nor the scipy.optimize and
scipy.linalg it brings), and the WKB action stays free of it: a
:func:`linpot.wkb_sigma_R` call sums the knot polyline in closed form, for a
ramp's infinite action and for a barrier alike, and gives the same action
as a call in this process, whatever else it has loaded.

The same interpreter lists the dataclasses among linpot's top-level names:
they are exactly the 13 input types that callers build and linpot validates.
A record a function returns is a ``typing.NamedTuple``, which costs far less
to define at import, so a record added as a dataclass fails here.

Those checks run in a fresh interpreter, since this one has imported
everything the other tests use.  One more runs here, over every module:
each dataclass in the package, the inputs of ``config`` and ``verify``
included, is made by ``core._input``, so it carries the one shared
``__repr__``, ``__eq__`` and ``__hash__`` and the one shared write-once
``__setattr__`` and ``__delattr__``; ``dataclass`` compiles only its
``__init__`` at import.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import linpot
from linpot import core

from conftest import package_dataclasses

SRC = Path(__file__).parents[1] / "src"
HEAVY = (
    "scipy", "scipy.fft", "scipy.special", "scipy.integrate", "scipy.optimize", "scipy.linalg"
)

# c06's first barrier, at 0.3 of its peak
BARRIER = {"x_start": 0.0, "slope": 2.0, "peak_height": 5.0}
ENERGY = 1.5

INPUT_TYPES = [
    "Absorber",
    "BarrierSpec",
    "GaussianSpec",
    "Linear",
    "PiecewiseLinear",
    "PsgGeometry",
    "SgSpec",
    "SolverConfig",
    "SpatialGrid",
    "SpinDensity",
    "SpinorPacket",
    "UnitSystem",
    "WaveFunction",
]

SCRIPT = f"""
import sys
import linpot.cli
print([m for m in {HEAVY!r} if m in sys.modules])
import numpy as np
import scipy.fft
a = np.linspace(-1.0, 1.0, 64) * (1.0 + 0.5j)
print(np.array_equal(scipy.fft.fft(a), linpot.core._fft(a)))
import linpot
import dataclasses
print(sorted(
    name for name in linpot.__all__
    if isinstance(getattr(linpot, name), type)
    and dataclasses.is_dataclass(getattr(linpot, name))
))
print(repr(linpot.wkb_sigma_R(linpot.Linear(2.0), 3.0)))
print("scipy.integrate" in sys.modules)
print(repr(linpot.wkb_sigma_R(linpot.BarrierSpec(**{BARRIER!r}), {ENERGY!r})))
print("scipy.integrate" in sys.modules)
"""


def _fresh_python(script):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, (str(SRC), env.get("PYTHONPATH")))
    )
    done = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout.splitlines()


@pytest.fixture(scope="module")
def fresh():
    """The lines SCRIPT prints in a fresh interpreter."""
    return _fresh_python(SCRIPT)


def test_cli_import_and_wkb_action_never_load_scipy_integrate(fresh):
    loaded, fft_agrees, _, ramp_action, ramp_loaded, action, integrate_loaded = fresh
    assert loaded == "[]"
    assert fft_agrees == "True"
    # a ramp has no far turning point: its action is inf
    assert ramp_action == "inf"
    assert ramp_loaded == "False"
    assert integrate_loaded == "False"
    assert action == repr(linpot.wkb_sigma_R(linpot.BarrierSpec(**BARRIER), ENERGY))


def test_only_the_input_types_are_dataclasses(fresh):
    assert fresh[2] == repr(INPUT_TYPES)


def test_every_dataclass_shares_the_input_methods():
    shared = (
        core._input_repr,
        core._input_eq,
        core._input_hash,
        core._input_setattr,
        core._input_delattr,
    )
    apart = [
        name
        for name, cls in package_dataclasses().items()
        if (cls.__repr__, cls.__eq__, cls.__hash__, cls.__setattr__, cls.__delattr__) != shared
    ]
    assert apart == []

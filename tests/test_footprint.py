"""What a linpot process loads: importing the CLI must not pull in the
scipy.fft package (nor the scipy.special its fftlog backend brings), since
linpot loads only scipy's pocketfft extension, and a later ``import
scipy.fft`` in the same process must still transform bit for bit as linpot
does.  Nor must it pull in scipy.integrate (nor the scipy.optimize and
scipy.linalg it brings), which only the WKB action integral uses; the first
:func:`linpot.wkb_sigma_R` call that integrates loads it (a ramp's infinite
action does not) and gives the same action as a call in a process that had
it loaded.

Each check runs in a fresh interpreter, since this one has imported
everything the other tests use.
"""

import os
import subprocess
import sys
from pathlib import Path

import linpot

SRC = Path(__file__).parents[1] / "src"
HEAVY = ("scipy.fft", "scipy.special", "scipy.integrate", "scipy.optimize", "scipy.linalg")

# c06's first barrier, at 0.3 of its peak
BARRIER = {"x_start": 0.0, "slope": 2.0, "peak_height": 5.0}
ENERGY = 1.5

SCRIPT = f"""
import sys
import linpot.cli
print([m for m in {HEAVY!r} if m in sys.modules])
import numpy as np
import scipy.fft
a = np.linspace(-1.0, 1.0, 64) * (1.0 + 0.5j)
print(np.array_equal(scipy.fft.fft(a), linpot.core._fft(a)))
import linpot
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


def test_cli_import_leaves_quadrature_unloaded_until_first_action():
    loaded, fft_agrees, ramp_action, ramp_loaded, action, integrate_loaded = (
        _fresh_python(SCRIPT)
    )
    assert loaded == "[]"
    assert fft_agrees == "True"
    # a ramp has no far turning point: its action is inf with nothing to integrate
    assert ramp_action == "inf"
    assert ramp_loaded == "False"
    assert integrate_loaded == "True"
    assert action == repr(linpot.wkb_sigma_R(linpot.BarrierSpec(**BARRIER), ENERGY))

import dataclasses
import importlib
import pkgutil

import numpy as np
import pytest

import linpot
import linpot.core as core
import linpot.oracle as oracle
from linpot import GaussianSpec, SpatialGrid, sample_gaussian


@pytest.fixture
def grid():
    return SpatialGrid(-32.0, 32.0, 2048)


@pytest.fixture
def packet(grid):
    return sample_gaussian(GaussianSpec(x0=-2.0, p0=3.0, sigma=1.0), grid)


@pytest.fixture
def kernel_calls(monkeypatch):
    """``calls["n"]`` counts the FFT kernel calls made from now on through
    ``core`` and ``oracle``, the modules the solver transforms in."""
    calls = {"n": 0}

    def counting(kernel):
        def transform(*args, **kwargs):
            calls["n"] += 1
            return kernel(*args, **kwargs)

        return transform

    for module in (core, oracle):
        for name in ("_fft", "_ifft"):
            monkeypatch.setattr(module, name, counting(getattr(module, name)))
    return calls


def direct_dft(psi, hbar=1.0):
    """O(n^2) momentum representation straight from the defining sum;
    independent of the FFT path it checks.  Returns (p_sorted, amps_sorted)."""
    g = psi.grid
    k = np.sort(2.0 * np.pi * np.fft.fftfreq(g.n, d=g.dx))
    p = hbar * k
    phases = np.exp(-1j * np.outer(p, g.x) / hbar)
    amps = phases @ psi.amps * g.dx / np.sqrt(2.0 * np.pi * hbar)
    return p, amps


def package_dataclasses():
    """Every dataclass defined at the top level of a linpot module, by name."""
    found = {}
    for info in pkgutil.iter_modules(linpot.__path__, "linpot."):
        module = importlib.import_module(info.name)
        for name, obj in vars(module).items():
            if (
                isinstance(obj, type)
                and obj.__module__ == info.name
                and dataclasses.is_dataclass(obj)
            ):
                found[name] = obj
    return found

"""Grids, wave-functions, Gaussian packets, potentials and observables.

Everything here is immutable after construction and all operations are pure
functions, so states can be shared freely across threads.

One private routine, ``_moments``, computes norm^2, <x>, <p> and the
sigma-parameter width of position amplitudes.  The public observables, the
solver's snapshots and the tunneling rows all call it, so they agree to the
last bit.

Inputs and records are two kinds of type, package-wide.  An input is what
a caller builds and linpot validates (the grid, states, packet and the two
potentials, ``Linear`` and ``PiecewiseLinear``, here; the absorber, solver
config, barrier, spinors, spin density and device geometries elsewhere): a
dataclass made by ``_input``, which checks its fields in ``__post_init__``;
its range rules are ``_finite`` and ``_positive``, whose messages start
with the field name that config keys its errors by.  Every input shares
one ``__repr__``, ``__eq__`` and ``__hash__``, which give what
``dataclass`` would generate, and one write-once ``__setattr__`` and
``__delattr__``, which refuse any change after ``__init__`` with the
``FrozenInstanceError`` a frozen dataclass raises, so ``dataclass``
compiles only each input's ``__init__`` when its module is imported.  A
record is what a linpot function returns (ledgers, results, trajectories,
scans): a ``typing.NamedTuple``, which has nothing to check and costs far
less to define at import than a dataclass.
Both are immutable once built.  Being tuples, records also take ``len``,
iteration, unpacking and ``==`` against a plain tuple over their fields.

Conventions
-----------
* Natural units (hbar = 1, mass = 1) are the default; SI values enter only
  through an explicit :class:`UnitSystem`.
* The position grid is uniform and periodic, ``x_j = x_min + j*dx`` with
  ``dx = (x_max - x_min)/n`` (the right endpoint is excluded).  ``n`` must be
  a power of two; other sizes are rejected rather than padded so that stored
  outputs are bit-reproducible.
* The momentum grid is the discrete-Fourier conjugate of the position grid,
  ``p_j = hbar * 2*pi*fftfreq(n, dx)``.  Internally momentum arrays live in
  FFT wraparound order; every *exported* momentum array (the amplitudes
  :func:`to_momentum_rep` returns among them) is re-sorted to ascending p.
* Transforms go through ``_fft`` and ``_ifft``, which call the pocketfft
  kernel that ``scipy.fft.fft``/``ifft`` themselves end in, with the
  arguments those pass; the output is bit-identical, without the dispatch
  layer's fixed cost per call.  The kernel extension is loaded from scipy's
  install by file, so the ``scipy.fft`` package (and the scipy.special its
  fftlog backend imports) is never loaded.  The pair takes complex128
  arrays: a state's amplitudes, which :class:`WaveFunction` stores as one,
  or an array linpot built.  ``fftfreq`` and ``fftshift`` are numpy's.
* Every phase table is one ``np.exp`` of its formula.  Two have one owner
  each: the kinetic table ``_kinetic``, shared by the closed form and the
  solver, and the argument-shift table ``_shift_table``, exp(i k shift) in
  wrap order, which also carries the ``exp(-+i k x_min)`` factor of the
  Fourier pair.
* The Fourier pair is unitary in the discrete inner products::

      psi_tilde(p) = dx/sqrt(2*pi*hbar) * sum_j psi(x_j) exp(-i p x_j / hbar)
      sum |psi|^2 dx  ==  sum |psi_tilde|^2 dp     (Parseval, exact)

* Width conventions: for the Gaussian packet

      psi(x) = pi^(-1/4) sigma^(-1/2) exp[i p0 (x-x0)/hbar - (x-x0)^2/(2 sigma^2)]

  the rms width sqrt(<x^2>-<x>^2) equals sigma/sqrt(2).  The package reports
  the *sigma-parameter width* rms*sqrt(2) by default, so that the width of a
  fresh packet equals its sigma parameter and the free-spreading law reads
  sigma(t) = sigma*sqrt(1 + (hbar*t/(m sigma^2))^2).
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import math
import os
from dataclasses import FrozenInstanceError, dataclass, fields
from functools import cached_property
from numbers import Integral
from reprlib import recursive_repr

import numpy as np

from .errors import CoverageError, NormalizationError, _warn

__all__ = [
    "UnitSystem",
    "NATURAL",
    "si_units",
    "SpatialGrid",
    "WaveFunction",
    "GaussianSpec",
    "Linear",
    "PiecewiseLinear",
    "sample_gaussian",
    "mean_position",
    "mean_momentum",
    "spatial_width",
    "to_momentum_rep",
    "to_position_rep",
    "l2_distance",
    "gaussian_width_at",
]

HBAR_SI = 1.054571817e-34  # J s (2018 CODATA)

# Edge-mass guard: a state is in contact with the grid edge when more than
# _EDGE_THRESHOLD of its norm sits on an edge strip; the boundary warnings use
# the outer _EDGE_BAND of the points at each edge (at least one point).
_EDGE_THRESHOLD = 1e-10
_EDGE_BAND = 0.05


@recursive_repr()
def _input_repr(self) -> str:
    shown = (f"{f.name}={getattr(self, f.name)!r}" for f in fields(self))
    return f"{self.__class__.__qualname__}({', '.join(shown)})"


def _field_values(obj) -> tuple:
    return tuple(getattr(obj, f.name) for f in fields(obj))


def _input_eq(self, other):
    if other.__class__ is self.__class__:
        return _field_values(self) == _field_values(other)
    return NotImplemented


def _input_hash(self) -> int:
    return hash(_field_values(self))


def _input_setattr(self, name, value) -> None:
    # the generated __init__ sets each field once; nothing sets one again
    if name in self.__dict__ or name not in self.__dataclass_fields__:
        raise FrozenInstanceError(f"cannot assign to field {name!r}")
    self.__dict__[name] = value


def _input_delattr(self, name) -> None:
    raise FrozenInstanceError(f"cannot delete field {name!r}")


def _finite(**values) -> None:
    """Raise ValueError("<name> must be finite") for the first value that is not."""
    for name, value in values.items():
        if not math.isfinite(value):
            raise ValueError(f"{name} must be finite")


def _positive(**values) -> None:
    """Raise ValueError("<name> must be positive and finite") for the first value that is not."""
    for name, value in values.items():
        if not 0.0 < value < math.inf:
            raise ValueError(f"{name} must be positive and finite")


def _input(cls):
    """A dataclass whose ``__repr__``, ``__eq__``, ``__hash__``,
    ``__setattr__`` and ``__delattr__`` are the five shared functions above,
    so ``dataclass`` compiles only its ``__init__``.  The first three give
    what ``dataclass`` would generate for fields that keep the default
    ``repr``, ``compare`` and ``hash``, as every input's do;
    tests/test_inputs.py fails on one that does not.  The write-once setter
    lets ``__init__`` set each field, then refuses as a frozen dataclass
    does; ``__post_init__`` replaces a converted field with
    ``object.__setattr__``."""
    cls = dataclass(repr=False, eq=False)(cls)
    cls.__repr__ = _input_repr
    cls.__eq__ = _input_eq
    cls.__hash__ = _input_hash
    cls.__setattr__ = _input_setattr
    cls.__delattr__ = _input_delattr
    return cls


@_input
class UnitSystem:
    """Physical constants of one unit convention: hbar and particle mass."""

    hbar: float
    mass: float

    def __post_init__(self):
        _positive(hbar=self.hbar, mass=self.mass)

    def with_mass(self, mass: float) -> "UnitSystem":
        return UnitSystem(self.hbar, mass)


NATURAL = UnitSystem(1.0, 1.0)


def si_units(mass: float) -> UnitSystem:
    """SI convention for a particle of the given mass in kg."""
    return UnitSystem(HBAR_SI, mass)


def _load_pocketfft(directory: str):
    """scipy's ``pypocketfft`` extension, loaded from ``directory`` (the
    ``fft/_pocketfft`` folder of scipy's install) without importing the
    ``scipy.fft`` package around it.  Raises ImportError naming the directory
    and the installed scipy version when the extension is not there."""
    spec = importlib.machinery.PathFinder.find_spec(
        "scipy.fft._pocketfft.pypocketfft", [directory]
    )
    if spec is None:
        from scipy import __version__

        raise ImportError(
            f"scipy's pocketfft kernel (pypocketfft) not found in {directory} "
            f"(scipy {__version__})"
        )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


_pocketfft = _load_pocketfft(
    os.path.join(
        importlib.util.find_spec("scipy").submodule_search_locations[0], "fft", "_pocketfft"
    )
)


def _fft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.fft.fft(a)`` along the last axis, straight into its kernel.

    The arguments are those ``scipy.fft`` passes (no normalization, one
    worker), so the result is bit-identical for the complex128 arrays the
    pair takes; nothing converts ``a`` first.  ``out=a`` transforms ``a`` in
    place and returns it, as ``overwrite_x=True`` does.
    """
    return _pocketfft.c2c(a, (-1,), True, 0, out, 1)


def _ifft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.fft.ifft(a)`` (1/n normalization), as :func:`_fft`."""
    return _pocketfft.c2c(a, (-1,), False, 2, out, 1)


def _shift_table(grid: SpatialGrid, shift: float) -> np.ndarray:
    """exp(i k shift) in wrap order; a spectrum times it is the state
    translated to amps(x + shift)."""
    return np.exp(1j * shift * grid.k_wrap)


def _kinetic(grid: SpatialGrid, dt: float, units: UnitSystem) -> np.ndarray:
    """The free-evolution table exp(-i hbar k^2 dt / 2m) in wrap order."""
    return np.exp(-1j * units.hbar * grid.k_wrap**2 * dt / (2.0 * units.mass))


@_input
class SpatialGrid:
    """Uniform periodic 1-D grid with its discrete-Fourier conjugate grid.

    ``n`` must be a whole number (not a bool), a power of two and at least
    16.  Wavenumbers ``k_wrap`` are kept in FFT wraparound order for internal
    spectral work; ``k_sorted`` is the ascending version used for exported
    momentum arrays.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        _finite(x_min=self.x_min, x_max=self.x_max)
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        _finite(**{"x_max - x_min": self.span})
        n = self.n
        if isinstance(n, bool) or not isinstance(n, Integral) or n < 16 or n & (n - 1):
            raise ValueError(f"n must be a power of two >= 16, got {n}")

    @property
    def span(self) -> float:
        return self.x_max - self.x_min

    @property
    def dx(self) -> float:
        return self.span / self.n

    @property
    def dk(self) -> float:
        return 2.0 * np.pi / self.span

    @cached_property
    def x(self) -> np.ndarray:
        return self.x_min + self.dx * np.arange(self.n)

    @cached_property
    def k_wrap(self) -> np.ndarray:
        return 2.0 * np.pi * np.fft.fftfreq(self.n, d=self.dx)

    @cached_property
    def k_sorted(self) -> np.ndarray:
        return np.fft.fftshift(self.k_wrap)

    def p_sorted(self, units: UnitSystem = NATURAL) -> np.ndarray:
        """Ascending momentum grid, p = hbar * k."""
        return units.hbar * self.k_sorted


@_input
class WaveFunction:
    """Complex position amplitudes on a grid, with a time stamp.  ``amps``
    is stored as one aligned, native complex128 row of ``grid.n`` points,
    the array the transforms take; one that already is that is not copied."""

    grid: SpatialGrid
    amps: np.ndarray
    time: float = 0.0

    def __post_init__(self):
        amps = np.require(self.amps, complex, "A")
        if amps.shape != (self.grid.n,):
            raise ValueError(
                f"amplitudes must be a 1-D array of {self.grid.n} points, got shape {amps.shape}"
            )
        _finite(time=self.time)
        object.__setattr__(self, "amps", amps)

    def norm2(self) -> float:
        """Squared norm sum(|amps|^2) * dx."""
        return float(np.sum(np.abs(self.amps) ** 2) * self.grid.dx)

    def require_normalized(self) -> None:
        n2 = self.norm2()
        if not abs(n2 - 1.0) < 1e-6:
            raise NormalizationError(f"state norm^2 = {n2!r}, expected 1")

    def with_amps(self, amps: np.ndarray, time: float | None = None) -> "WaveFunction":
        return WaveFunction(self.grid, amps, self.time if time is None else time)

    def density(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@_input
class GaussianSpec:
    """Parameters (x0, p0, sigma) of a minimum-uncertainty Gaussian packet."""

    x0: float = 0.0
    p0: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        _finite(x0=self.x0, p0=self.p0)
        _positive(sigma=self.sigma)


def sample_gaussian(
    spec: GaussianSpec,
    grid: SpatialGrid,
    units: UnitSystem = NATURAL,
) -> WaveFunction:
    """Sample the Gaussian packet onto the grid.

    Amplitudes are the closed form
    ``pi^(-1/4) sigma^(-1/2) exp[i p0 (x-x0)/hbar - (x-x0)^2/(2 sigma^2)]``
    with no discrete renormalization: if the grid spans x0 +- 8 sigma the
    squared norm lands within 1e-10 of 1 on its own.

    Raises :class:`CoverageError` if the grid covers less than 6 sigma on
    either side of x0; warns between 6 and 8 sigma.
    """
    left = (spec.x0 - grid.x_min) / spec.sigma
    right = (grid.x_max - spec.x0) / spec.sigma
    deficit = min(left, right)
    if deficit < 6.0:
        raise CoverageError(
            f"grid covers x0 {'-' if left < right else '+'} {deficit:.2f} sigma; "
            f"need at least 6 sigma on both sides of x0={spec.x0!r}"
        )
    if deficit < 8.0:
        _warn(f"grid covers only {deficit:.2f} sigma around x0; norm error may exceed 1e-10")
    u = grid.x - spec.x0
    amps = (
        np.pi ** -0.25
        * spec.sigma ** -0.5
        * np.exp(1j * spec.p0 * u / units.hbar - u**2 / (2.0 * spec.sigma**2))
    )
    return WaveFunction(grid, amps)


def _edge_share(amps: np.ndarray, n_lo: int, n_hi: int) -> float:
    """Share of sum |amps|^2 on the first ``n_lo`` and the last ``n_hi``
    points; 0 for a null state."""
    lo, hi = amps[:n_lo], amps[len(amps) - n_hi:]
    total = np.vdot(amps, amps).real
    if not total > 0:
        return 0.0
    return float((np.vdot(lo, lo).real + np.vdot(hi, hi).real) / total)


def _band_share(amps: np.ndarray) -> float:
    """Share of sum |amps|^2 on the outer _EDGE_BAND of the points at each edge."""
    m = max(1, round(_EDGE_BAND * len(amps)))
    return _edge_share(amps, m, m)


def _wrap_share(amps, axis, width, shift) -> float:
    """Share of the norm on the edge strip that translating the argument by
    ``shift`` wraps around: axis < axis[0] + width for a positive shift,
    axis > axis[-1] - width for a negative one (``axis`` ascending); 0 for
    a null state."""
    if shift > 0:
        return _edge_share(amps, int(axis.searchsorted(axis[0] + width, "left")), 0)
    return _edge_share(amps, 0, len(amps) - int(axis.searchsorted(axis[-1] - width, "right")))


def _check_wrap(psi: WaveFunction, shift: float) -> None:
    """Raise :class:`CoverageError` when translating the argument of the
    position state ``psi`` by ``shift`` would wrap more than _EDGE_THRESHOLD
    of its norm around the periodic grid (the strip of width |shift|,
    clipped at the span)."""
    if shift != 0.0:
        width = min(abs(shift), psi.grid.span)
        share = _wrap_share(psi.amps, psi.grid.x, width, shift)
        if share > _EDGE_THRESHOLD:
            raise CoverageError(
                f"argument shift {shift!r} would wrap {share:.2e} of the norm "
                f"around the grid edge; widen it by at least {width!r}"
            )


def _kick_share(ascending, grid: SpatialGrid, units: UnitSystem, kick: float) -> float:
    """Share of the norm that the momentum kick ``kick`` (the mean momentum
    changes by -kick) carries around the momentum grid.

    ``ascending`` is the state's spectrum on the ascending momentum axis.
    The strip is every point p < p_min + kick for a positive kick,
    p > p_max + kick for a negative one: ceil(|kick|/dp) points at one end
    of the axis, counted in steps of dp so no roundoff of p moves its end.
    It is clipped at the whole axis, so a kick that wide takes all points
    but one.
    """
    m = math.ceil(min(grid.n - 1, abs(kick) / (units.hbar * grid.dk)))
    return _edge_share(ascending, m, 0) if kick > 0 else _edge_share(ascending, 0, m)


def _check_kick(spectrum, grid: SpatialGrid, units: UnitSystem, kick: float) -> None:
    """Raise :class:`CoverageError` when more than _EDGE_THRESHOLD of the
    norm is on :func:`_kick_share`'s strip.  ``spectrum`` is the state's
    ``_fft`` (wrap order).

    The momentum axis reaches pi hbar / dx on either side, so the remedy is
    a finer dx, not a wider span.  The message names the dx whose axis
    still holds, after the kick, the outermost point of the receiving side
    with more than _EDGE_THRESHOLD of the norm beyond it, and the
    power-of-two n that gives that dx on the same span.
    """
    ascending = np.fft.fftshift(spectrum)
    share = _kick_share(ascending, grid, units, kick)
    if share > _EDGE_THRESHOLD:
        # mirrored for a negative kick, so the receiving side is the low end
        p, rho = grid.p_sorted(units), np.abs(ascending) ** 2
        if kick < 0:
            p, rho = -p[::-1], rho[::-1]
        cum = np.cumsum(rho)
        edge = p[int(cum.searchsorted(_EDGE_THRESHOLD * cum[-1], "right"))]
        dx = np.pi * units.hbar / (abs(kick) - edge)
        n = 1 << (math.ceil(grid.span / dx) - 1).bit_length()
        raise CoverageError(
            f"momentum kick {kick!r} would wrap {share:.2e} of the norm around "
            f"the momentum-grid edge; dx <= {dx:.4g} (n >= {n} on this span) "
            "makes room for it"
        )


def _moments(amps: np.ndarray, grid: SpatialGrid, hbar: float):
    """(norm^2, <x>, <p>, sigma-parameter width) of position amplitudes on
    ``grid``; the width is sqrt(2) times the rms width.

    The moments are taken over the normalized density, so they describe the
    state that survives an absorber; a null state has NaN moments.  <p> is
    computed spectrally.
    """
    rho = np.abs(amps) ** 2
    dx = grid.dx
    n2 = float(rho.sum() * dx)
    if n2 <= 0.0:
        return n2, np.nan, np.nan, np.nan
    mx = float((grid.x * rho).sum() * dx / n2)
    var = float(((grid.x - mx) ** 2 * rho).sum() * dx / n2)
    rho_k = np.abs(_fft(amps)) ** 2
    mp = float(hbar * (grid.k_wrap * rho_k).sum() / float(rho_k.sum()))
    return n2, mx, mp, np.sqrt(max(var, 0.0)) * np.sqrt(2.0)


def _normalized_moments(psi: WaveFunction, units: UnitSystem):
    psi.require_normalized()
    return _moments(psi.amps, psi.grid, units.hbar)


def mean_position(psi: WaveFunction) -> float:
    """<x> = sum x |psi|^2 dx.  Requires a normalized state."""
    return _normalized_moments(psi, NATURAL)[1]


def mean_momentum(psi: WaveFunction, units: UnitSystem = NATURAL) -> float:
    """<p>, computed spectrally.  Requires a normalized state."""
    return _normalized_moments(psi, units)[2]


def spatial_width(psi: WaveFunction) -> float:
    """Sigma-parameter width of a normalized state: sqrt(2) times the rms
    width sqrt(<x^2> - <x>^2), so a fresh Gaussian packet's width equals its
    sigma parameter and the free-spreading law sigma(t) applies as written.
    """
    return _normalized_moments(psi, NATURAL)[3]


def gaussian_width_at(sigma: float, dt: float, units: UnitSystem = NATURAL) -> float:
    """The free-evolution width law sigma(dt) = sigma*sqrt(1 + (hbar dt/(m sigma^2))^2).

    Sigma-parameter convention, so sigma(0) = sigma.  A linear potential does
    not change this law; the solver-validated reference formula is exposed
    here rather than the full complex evolved-Gaussian prefactor.
    """
    _positive(sigma=sigma)
    _finite(dt=dt)
    theta = units.hbar * dt / (units.mass * sigma**2)
    return sigma * float(np.sqrt(1.0 + theta**2))


def to_momentum_rep(
    psi: WaveFunction, units: UnitSystem = NATURAL
) -> tuple[np.ndarray, np.ndarray]:
    """Unitary transform to the momentum representation: ``(p, amps)``, the
    ascending momentum axis ``grid.p_sorted(units)`` and the amplitudes on
    it, normalized with dp."""
    g = psi.grid
    tilde_wrap = _fft(psi.amps) * (g.dx / np.sqrt(2.0 * np.pi * units.hbar))
    tilde_wrap *= _shift_table(g, -g.x_min)
    return g.p_sorted(units), np.fft.fftshift(tilde_wrap)


def to_position_rep(
    grid: SpatialGrid, amps: np.ndarray, units: UnitSystem = NATURAL
) -> WaveFunction:
    """Inverse of :func:`to_momentum_rep`: the position state at t = 0 whose
    ascending-p amplitudes on ``grid`` are ``amps``; the round trip is exact
    to ~1e-15."""
    out = _ifft(np.fft.ifftshift(amps) * _shift_table(grid, grid.x_min))
    out *= np.sqrt(2.0 * np.pi * units.hbar) / grid.dx
    return WaveFunction(grid, out)


def l2_distance(a: WaveFunction, b: WaveFunction) -> float:
    """sqrt(sum |a-b|^2 dx) for two states on the same grid."""
    if a.grid is not b.grid and a.grid != b.grid:
        raise ValueError("states live on different grids")
    return float(np.sqrt((np.abs(a.amps - b.amps) ** 2).sum() * a.grid.dx))


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


@_input
class Linear:
    """V(x) = v0 * x (+ optional constant offset); ``Linear(0.0)`` is free."""

    v0: float
    offset: float = 0.0

    def __post_init__(self):
        _finite(v0=self.v0, offset=self.offset)

    def evaluate(self, x):
        return self.v0 * x + self.offset


@_input
class PiecewiseLinear:
    """Continuous piecewise-linear potential through finite, strictly
    increasing breakpoints, constant beyond the first and the last; samples
    on a grid make the polyline through them."""

    breakpoints: tuple

    def __post_init__(self):
        pts = tuple((float(x), float(v)) for x, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        xs = [x for x, _ in pts]
        if len(xs) < 2:
            raise ValueError("need at least two breakpoints")
        if not np.all(np.isfinite(pts)):
            raise ValueError("breakpoints must be finite")
        if any(b <= a for a, b in zip(xs, xs[1:])):
            raise ValueError("breakpoint positions must be strictly increasing")

    @property
    def xs(self) -> np.ndarray:
        return np.array([x for x, _ in self.breakpoints])

    @property
    def vs(self) -> np.ndarray:
        return np.array([v for _, v in self.breakpoints])

    def evaluate(self, x):
        return np.interp(x, self.xs, self.vs)

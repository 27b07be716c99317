"""Grids, wave-functions, Gaussian packets, potentials and observables.

Everything here is immutable after construction and all operations are pure
functions, so states can be shared freely across threads.

One private routine, ``_moments``, computes norm^2, <x>, <p> and the rms
width of position amplitudes.  The public observables, the solver's
snapshots and the tunneling rows all call it, so they agree to the last bit.

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
  FFT wraparound order; every *exported* momentum-space array (and every
  momentum-representation :class:`WaveFunction`) is re-sorted to ascending p.
* Transforms go through ``_fft`` and ``_ifft``, which call the pocketfft
  kernel that ``scipy.fft.fft``/``ifft`` themselves end in, with the
  arguments those pass; the output is bit-identical, without the dispatch
  layer's fixed cost per call.  ``fftfreq`` and ``fftshift`` are numpy's.
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

import warnings
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.fft._pocketfft import pypocketfft as _pocketfft
from scipy.fft._pocketfft.helper import _asfarray

from .errors import CoverageError, NormalizationError

__all__ = [
    "UnitSystem",
    "NATURAL",
    "si_units",
    "SpatialGrid",
    "WaveFunction",
    "GaussianSpec",
    "Potential",
    "Free",
    "Linear",
    "PiecewiseLinear",
    "Sampled",
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


@dataclass(frozen=True)
class UnitSystem:
    """Physical constants of one unit convention: hbar, particle mass, label."""

    hbar: float
    mass: float
    label: str = "natural"

    def __post_init__(self):
        if not 0.0 < self.hbar < np.inf:
            raise ValueError("hbar must be positive and finite")
        if not 0.0 < self.mass < np.inf:
            raise ValueError("mass must be positive and finite")

    def with_mass(self, mass: float) -> "UnitSystem":
        return UnitSystem(self.hbar, mass, self.label)


NATURAL = UnitSystem(1.0, 1.0, "natural")


def si_units(mass: float) -> UnitSystem:
    """SI convention for a particle of the given mass in kg."""
    return UnitSystem(HBAR_SI, mass, "si")


def _fft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.fft.fft(a)`` along the last axis, straight into its kernel.

    The arguments are those ``scipy.fft`` passes (no normalization, one
    worker), so the result is bit-identical.  Out of place, ``a`` is first
    converted as ``scipy.fft`` converts it, so lists and integer arrays work;
    ``out=a`` transforms a complex ``a`` in place and returns it, as
    ``overwrite_x=True`` does.
    """
    return _pocketfft.c2c(_asfarray(a) if out is None else a, (-1,), True, 0, out, 1)


def _ifft(a: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """``scipy.fft.ifft(a)`` (1/n normalization), as :func:`_fft`."""
    return _pocketfft.c2c(_asfarray(a) if out is None else a, (-1,), False, 2, out, 1)


def _is_power_of_two(n: int) -> bool:
    return n >= 1 and (n & (n - 1)) == 0


@dataclass(frozen=True)
class SpatialGrid:
    """Uniform periodic 1-D grid with its discrete-Fourier conjugate grid.

    ``n`` must be a power of two and at least 16.  Wavenumbers ``k_wrap`` are
    kept in FFT wraparound order for internal spectral work; ``k_sorted`` is
    the ascending version used for exported momentum arrays.
    """

    x_min: float
    x_max: float
    n: int

    def __post_init__(self):
        for name in ("x_min", "x_max"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not self.x_max > self.x_min:
            raise ValueError("x_max must exceed x_min")
        if not _is_power_of_two(self.n) or self.n < 16:
            raise ValueError(f"n must be a power of two >= 16, got {self.n}")

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


@dataclass(frozen=True)
class WaveFunction:
    """Complex amplitudes on a grid, with a time stamp.

    ``space`` is "position" or "momentum".  A momentum-representation
    wave-function stores its amplitudes against the ascending momentum axis
    ``p_axis`` (wraparound ordering never leaves this module) and its norm is
    measured with dp instead of dx.
    """

    grid: SpatialGrid
    amps: np.ndarray
    time: float = 0.0
    space: str = "position"
    p_axis: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.space not in ("position", "momentum"):
            raise ValueError(f"unknown space {self.space!r}")
        if len(self.amps) != self.grid.n:
            raise ValueError("amplitude array does not match grid size")
        if self.space == "momentum" and self.p_axis is None:
            raise ValueError("momentum-representation state needs its p axis")

    @property
    def dstep(self) -> float:
        if self.space == "position":
            return self.grid.dx
        return float(self.p_axis[1] - self.p_axis[0])

    @property
    def axis(self) -> np.ndarray:
        return self.grid.x if self.space == "position" else self.p_axis

    def norm2(self) -> float:
        """Squared norm sum(|amps|^2) * dstep."""
        return float(np.sum(np.abs(self.amps) ** 2) * self.dstep)

    def require_normalized(self, tol: float = 1e-6) -> None:
        n2 = self.norm2()
        if not abs(n2 - 1.0) < tol:
            raise NormalizationError(f"state norm^2 = {n2!r}, expected 1")

    def with_amps(self, amps: np.ndarray, time: float | None = None) -> "WaveFunction":
        return WaveFunction(
            self.grid,
            amps,
            self.time if time is None else time,
            self.space,
            self.p_axis,
        )

    def density(self) -> np.ndarray:
        return np.abs(self.amps) ** 2


@dataclass(frozen=True)
class GaussianSpec:
    """Parameters (x0, p0, sigma) of a minimum-uncertainty Gaussian packet."""

    x0: float = 0.0
    p0: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("x0", "p0"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite")
        if not 0.0 < self.sigma < np.inf:
            raise ValueError("sigma must be positive and finite")


def sample_gaussian(
    spec: GaussianSpec,
    grid: SpatialGrid,
    units: UnitSystem = NATURAL,
    t_i: float = 0.0,
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
        warnings.warn(
            f"grid covers only {deficit:.2f} sigma around x0; "
            "norm error may exceed 1e-10",
            stacklevel=2,
        )
    u = grid.x - spec.x0
    amps = (
        np.pi ** -0.25
        * spec.sigma ** -0.5
        * np.exp(1j * spec.p0 * u / units.hbar - u**2 / (2.0 * spec.sigma**2))
    )
    return WaveFunction(grid, amps, time=t_i)


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


def _position_rep(psi: WaveFunction, units: UnitSystem) -> WaveFunction:
    return psi if psi.space == "position" else to_position_rep(psi, units)


def _moments(amps: np.ndarray, grid: SpatialGrid, hbar: float):
    """(norm^2, <x>, <p>, rms width) of position amplitudes on ``grid``.

    The moments are taken over the normalized density, so they describe the
    state that survives an absorber; a null state has NaN moments.  <p> is
    computed spectrally, sqrt(2)*rms is the sigma-parameter width.
    """
    rho = np.abs(amps) ** 2
    dx = grid.dx
    n2 = float(np.sum(rho) * dx)
    if n2 <= 0.0:
        return n2, np.nan, np.nan, np.nan
    mx = float(np.sum(grid.x * rho) * dx / n2)
    var = float(np.sum((grid.x - mx) ** 2 * rho) * dx / n2)
    rho_k = np.abs(_fft(amps)) ** 2
    mp = float(hbar * np.sum(grid.k_wrap * rho_k) / float(np.sum(rho_k)))
    return n2, mx, mp, np.sqrt(max(var, 0.0))


def _normalized_moments(psi: WaveFunction, units: UnitSystem):
    psi = _position_rep(psi, units)
    psi.require_normalized()
    return _moments(psi.amps, psi.grid, units.hbar)


def mean_position(psi: WaveFunction, units: UnitSystem = NATURAL) -> float:
    """<x> = sum x |psi|^2 dx.  Requires a normalized state."""
    return _normalized_moments(psi, units)[1]


def mean_momentum(psi: WaveFunction, units: UnitSystem = NATURAL) -> float:
    """<p>, computed spectrally.  Requires a normalized state."""
    return _normalized_moments(psi, units)[2]


def spatial_width(
    psi: WaveFunction, convention: str = "sigma", units: UnitSystem = NATURAL
) -> float:
    """Spatial width of a normalized state.

    convention="rms" gives sqrt(<x^2> - <x>^2); convention="sigma" (default)
    gives rms*sqrt(2), which equals the sigma parameter of a fresh Gaussian
    packet.  The free-spreading law sigma(t) uses the sigma convention.
    """
    rms = _normalized_moments(psi, units)[3]
    if convention == "rms":
        return float(rms)
    if convention == "sigma":
        return rms * np.sqrt(2.0)
    raise ValueError(f"unknown width convention {convention!r}")


def gaussian_width_at(sigma: float, dt: float, units: UnitSystem = NATURAL) -> float:
    """Free-evolution width law sigma(dt) = sigma*sqrt(1 + (hbar dt/(m sigma^2))^2).

    Sigma-parameter convention, so sigma(0) = sigma.  A linear potential does
    not change this law; the solver-validated reference formula is exposed
    here rather than the full complex evolved-Gaussian prefactor.
    """
    theta = units.hbar * dt / (units.mass * sigma**2)
    return sigma * float(np.sqrt(1.0 + theta**2))


def to_momentum_rep(psi: WaveFunction, units: UnitSystem = NATURAL) -> WaveFunction:
    """Unitary transform to the momentum representation (ascending p axis)."""
    if psi.space == "momentum":
        return psi
    g = psi.grid
    phase = np.exp(-1j * g.k_wrap * g.x_min)
    tilde_wrap = _fft(psi.amps) * (g.dx / np.sqrt(2.0 * np.pi * units.hbar)) * phase
    return WaveFunction(
        g,
        np.fft.fftshift(tilde_wrap),
        psi.time,
        space="momentum",
        p_axis=g.p_sorted(units),
    )


def to_position_rep(psi: WaveFunction, units: UnitSystem = NATURAL) -> WaveFunction:
    """Inverse of :func:`to_momentum_rep`; round trip is exact to ~1e-15."""
    if psi.space == "position":
        return psi
    g = psi.grid
    tilde_wrap = np.fft.ifftshift(psi.amps)
    phase = np.exp(1j * g.k_wrap * g.x_min)
    amps = _ifft(tilde_wrap * phase) * (np.sqrt(2.0 * np.pi * units.hbar) / g.dx)
    return WaveFunction(g, amps, psi.time, space="position")


def l2_distance(a: WaveFunction, b: WaveFunction) -> float:
    """sqrt(sum |a-b|^2 dstep) for two states on the same grid and space."""
    if a.space != b.space or a.grid is not b.grid and a.grid != b.grid:
        raise ValueError("states live on different grids or representations")
    return float(np.sqrt(np.sum(np.abs(a.amps - b.amps) ** 2) * a.dstep))


# ---------------------------------------------------------------------------
# Potentials
# ---------------------------------------------------------------------------


class Potential:
    """Base class for scalar potentials, evaluated vectorized on positions."""

    def evaluate(self, x: np.ndarray) -> np.ndarray:
        raise NotImplementedError

    def __call__(self, x):
        return self.evaluate(np.asarray(x, dtype=float))


@dataclass(frozen=True)
class Free(Potential):
    """V(x) = 0."""

    def evaluate(self, x):
        return np.zeros_like(x)


@dataclass(frozen=True)
class Linear(Potential):
    """V(x) = v0 * x (+ optional constant offset)."""

    v0: float
    offset: float = 0.0

    def evaluate(self, x):
        return self.v0 * x + self.offset


@dataclass(frozen=True)
class PiecewiseLinear(Potential):
    """Continuous piecewise-linear potential through strictly increasing breakpoints.

    Constant extrapolation outside the first/last breakpoint.
    """

    breakpoints: tuple

    def __post_init__(self):
        pts = tuple((float(x), float(v)) for x, v in self.breakpoints)
        object.__setattr__(self, "breakpoints", pts)
        xs = [x for x, _ in pts]
        if len(xs) < 2:
            raise ValueError("need at least two breakpoints")
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


@dataclass(frozen=True)
class Sampled(Potential):
    """Potential known only through samples on a grid (the oracle's general form)."""

    grid: SpatialGrid
    values: np.ndarray

    def __post_init__(self):
        if len(self.values) != self.grid.n:
            raise ValueError("sample array does not match grid size")

    def evaluate(self, x):
        return np.interp(x, self.grid.x, self.values)

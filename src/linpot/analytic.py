"""Exact closed-form evolution under free and linear potentials.

For H = p^2/2m + V0*x the evolution operator factorizes exactly into a finite
product, because the commutator expansion terminates: with
A = -(i/hbar) V0 x dt and B = -(i/hbar) p^2/(2m) dt one finds

    C2 = (i/hbar) V0 p dt^2 / (2m),   C3 = -(i/hbar) V0^2 dt^3 / (6m),
    C_i = 0 for i >= 4,

so the full operator can be written in two equivalent orderings::

    left :  U = e^{-i V0^2 dt^3/(6 m hbar)} e^{-i V0 x dt/hbar}
                e^{+i V0 p dt^2/(2 m hbar)} U_free(dt)
    right:  U = U_free(dt) e^{+i V0^2 dt^3/(3 m hbar)} e^{-i V0 x dt/hbar}
                e^{-i V0 p dt^2/(2 m hbar)}

Acting on a wave-function, the p-linear factor is a pure argument shift::

    psi(x, t) = e^{-i V0^2 dt^3/(6 m hbar)} e^{-i V0 x dt/hbar}
                psi_free(x + V0 dt^2/(2m), t)

and in the momentum representation::

    psi~(p, t) = e^{+i V0^2 dt^3/(3 m hbar)} e^{+i V0 p dt^2/(2 m hbar)}
                 psi~_free(p + V0 dt, t)

Argument shifts are implemented as spectral translations (phase
multiplication in the conjugate domain), never interpolation, so they are
exact on band-limited states.  No phase is ever discarded: every evolution
returns a :class:`PhaseLedger` naming each acquired term.

Every transform goes through ``core._fft``/``_ifft``, as in the solver:
the kernel that ``scipy.fft`` itself calls, with the same arguments, so the
output is bit-identical to ``scipy.fft.fft``/``ifft``.  Every phase table
is one ``np.exp`` of its formula.  The kinetic table is ``core._kinetic``,
the one the solver steps with, and every argument shift multiplies by
``core._shift_table`` in :func:`spectral_shift`.  The pure phases of one
evolution (cubic, offset) enter the exponent of its x-linear or p-linear
phase, so one table carries them all.  :func:`linear_evolve` is the
product of its factors: :func:`free_evolve`, :func:`spectral_shift` and
the position phases, in the order its ordering names.  The wrap guards
(``core._check_wrap`` on the position grid, ``core._check_kick`` on the
momentum grid) raise rather than let the periodic grid alias a state;
each measures the state it is given.

``linpot evolve`` compares the solver with the exact state at every
snapshot, and its packets are Gaussians, which a linear potential keeps
Gaussian.  So its reference is ``_gaussian_evolve``: the same ledger's
argument shift, x-linear phase and cubic phase applied to the free
Gaussian in closed form, one complex ``exp`` per state, taken only over
the packet's support: the points where |psi| is at least eps^2 of its peak
(eps the float64 epsilon), every other point is 0.  It shares no
transform, table or guard with the solver or with :func:`linear_evolve`.

Sign conventions in one place: mean position gains -V0 dt^2/(2m) (constant
acceleration -V0/m), mean momentum gains -V0 dt, while the *argument* of the
free-evolved profile is shifted by +V0 dt^2/(2m) -- the classical motion under
the opposite potential.  Negative dt is allowed everywhere and is the exact
inverse evolution.
"""

from __future__ import annotations

import cmath
import math
from typing import NamedTuple

import numpy as np

from .core import (
    _EDGE_BAND,
    _EDGE_THRESHOLD,
    NATURAL,
    GaussianSpec,
    SpatialGrid,
    UnitSystem,
    WaveFunction,
    _band_share,
    _check_kick,
    _check_wrap,
    _fft,
    _ifft,
    _kinetic,
    _shift_table,
)
from .errors import BoundaryContaminationWarning, _warn

# log(eps^2): ``_gaussian_evolve`` leaves |psi| below eps^2 of its peak at 0
_LOG_TAIL = 2.0 * math.log(np.finfo(float).eps)

__all__ = [
    "PhaseLedger",
    "EvolutionResult",
    "PlaneWavePhase",
    "free_evolve",
    "linear_evolve",
    "plane_wave_phase",
    "spectral_shift",
]


class PhaseLedger(NamedTuple):
    """Explicit record of every term one linear evolution produced.

    The entries are representation-independent: the position-linear phase
    ``potential_phase_coeff * x`` is what shifts the momentum argument, and
    the momentum-linear phase ``momentum_shift_phase_coeff * p`` is what
    shifts the position argument.

    cubic_phase
        Global phase in radians: -V0^2 dt^3/(6 m hbar) in the left ordering,
        +V0^2 dt^3/(3 m hbar) in the right ordering (the two orderings place
        different pure phases but produce identical states).
    potential_phase_coeff
        Coefficient of x in the position-dependent phase: -V0 dt / hbar.
    momentum_shift_phase_coeff
        Coefficient of p in the momentum-dependent phase, as it appears in
        the applied ordering: +V0 dt^2/(2 m hbar) (left), -V0 dt^2/(2 m hbar)
        (right).
    argument_shift
        Position-argument translation of the free-evolved profile,
        +V0 dt^2/(2m).
    momentum_kick
        V0 * dt; the mean momentum changes by -momentum_kick.
    """

    cubic_phase: float = 0.0
    potential_phase_coeff: float = 0.0
    momentum_shift_phase_coeff: float = 0.0
    argument_shift: float = 0.0
    momentum_kick: float = 0.0


class EvolutionResult(NamedTuple):
    """Evolved state plus its phase ledger."""

    psi: WaveFunction
    ledger: PhaseLedger


class PlaneWavePhase(NamedTuple):
    """Phase acquired by the momentum eigenstate |p> under the right ordering.

    |p> evolves to exp(i * total) |kicked_momentum> with

        cubic       = +V0^2 dt^3 / (3 m hbar)
        p_linear    = -V0 p dt^2 / (2 m hbar)
        free_kicked = -(p - V0 dt)^2 dt / (2 m hbar)

    The same total decomposes in the left ordering as
    -V0^2 dt^3/(6 m hbar) + V0 p dt^2/(2 m hbar) - p^2 dt/(2 m hbar); both
    sums are identical and only the cubic part survives comparisons between
    kick-balanced segment sequences.
    """

    cubic: float
    p_linear: float
    free_kicked: float
    kicked_momentum: float

    @property
    def total(self) -> float:
        return self.cubic + self.p_linear + self.free_kicked


def free_evolve(
    psi: WaveFunction, dt: float, units: UnitSystem = NATURAL
) -> WaveFunction:
    """Evolve a state with no potential: multiply its spectrum by
    exp(-i p^2 dt / (2 m hbar)).  Exact to spectral precision; negative dt
    is the inverse evolution."""
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    amps = _ifft(_fft(psi.amps) * _kinetic(psi.grid, dt, units))
    share = _band_share(amps)
    if share > _EDGE_THRESHOLD:
        _warn(
            f"{share:.2e} of the norm sits in the outer {_EDGE_BAND:.0%} of the grid; "
            "results are contaminated by periodic wraparound",
            BoundaryContaminationWarning,
        )
    return psi.with_amps(amps, time=psi.time + dt)


def spectral_shift(psi: WaveFunction, shift: float) -> WaveFunction:
    """Exact band-limited translation: returns amps(x) = psi(x + shift).

    The spectrum is multiplied by exp(i k shift) (``core._shift_table``)
    and transformed back; a zero shift returns ``psi`` itself.
    """
    if shift == 0.0:
        return psi
    spectrum = _fft(psi.amps)
    spectrum *= _shift_table(psi.grid, shift)
    return psi.with_amps(_ifft(spectrum, out=spectrum))


def _ledger(v0: float, dt: float, units: UnitSystem, ordering: str) -> PhaseLedger:
    """The factorization's coefficients: the one place their formulas live."""
    hbar, m = units.hbar, units.mass
    if ordering == "left":
        cubic = -(v0**2) * dt**3 / (6.0 * m * hbar)
        p_coeff = +v0 * dt**2 / (2.0 * m * hbar)
    else:
        cubic = +(v0**2) * dt**3 / (3.0 * m * hbar)
        p_coeff = -v0 * dt**2 / (2.0 * m * hbar)
    return PhaseLedger(
        cubic_phase=cubic,
        potential_phase_coeff=-v0 * dt / hbar,
        momentum_shift_phase_coeff=p_coeff,
        argument_shift=v0 * dt**2 / (2.0 * units.mass),
        momentum_kick=v0 * dt,
    )


def linear_evolve(
    psi: WaveFunction,
    v0: float,
    dt: float,
    ordering: str = "left",
    units: UnitSystem = NATURAL,
    offset: float = 0.0,
    check_coverage: bool = True,
) -> EvolutionResult:
    """Evolve a state under V(x) = v0*x + offset.

    ``ordering`` selects which exact factorization is applied ("left" puts
    the free evolution first, "right" last); both produce the same state to
    roundoff and differ only in how the ledger splits the pure phases.  The
    constant ``offset`` contributes the global phase exp(-i offset dt/hbar)
    and nothing else.

    Raises :class:`CoverageError` when the argument shift would wrap real
    probability around the periodic grid, or the momentum kick around the
    momentum grid; ``check_coverage=False`` disables both guards for
    deliberately periodic states (plane waves), for which the wraparound is
    exact.
    """
    if ordering not in ("left", "right"):
        raise ValueError(f"unknown ordering {ordering!r}")
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    ledger = _ledger(v0, dt, units, ordering)
    shift, kick = ledger.argument_shift, ledger.momentum_kick
    # left: free flight, then the argument shift and the position phases;
    # right: the reversed shift and the phases on psi, then free flight
    left = ordering == "left"
    state = free_evolve(psi, dt, units) if left else psi
    by = shift if left else -shift
    if check_coverage:
        _check_wrap(state, by)
        if kick != 0.0:  # free flight leaves |spectrum| alone: psi's shows the wrap
            _check_kick(_fft(psi.amps), psi.grid, units, kick)
    amps = spectral_shift(state, by).amps
    out = state.with_amps(_position_phases(amps, psi.grid, dt, ledger, units, offset))
    return EvolutionResult(out if left else free_evolve(out, dt, units), ledger)


def _position_phases(amps, grid, dt, ledger, units, offset):
    """``amps`` times the ledger's x-linear phase exp(i c x) and cubic phase
    and the offset's global phase exp(-i offset dt/hbar), as one table."""
    phase = ledger.cubic_phase - offset * dt / units.hbar
    return amps * np.exp(1j * (ledger.potential_phase_coeff * grid.x + phase))


def _gaussian_evolve(
    spec: GaussianSpec,
    grid: SpatialGrid,
    v0: float,
    t: float,
    units: UnitSystem = NATURAL,
) -> WaveFunction:
    """The packet ``sample_gaussian(spec, grid, units)`` evolved for ``t``
    under V(x) = v0*x, exactly and pointwise on ``grid``.

    Free flight keeps the packet Gaussian; with d = 1 + i hbar t/(m sigma^2)::

        psi_free(x', t) = pi^(-1/4) sigma^(-1/2) d^(-1/2)
            exp[-(x' - x0 - p0 t/m)^2 / (2 sigma^2 d)
                + i p0 (x' - x0)/hbar - i p0^2 t/(2 m hbar)]

    The left ordering's ledger takes it at x' = x + s (the argument shift),
    times the x-linear phase exp(i c x), c = -v0 t/hbar, and the cubic
    phase.  In w = x - X, with X = x0 + p0 t/m - s the classical centre,
    that is one quadratic exponent::

        -w^2 / (2 sigma^2 d) + i (p0/hbar + c) w
            + i (p0^2 t/(2 m hbar) + c X + cubic)
            - log(pi^(1/4) sigma^(1/2) d^(1/2))

    so the state is one ``np.exp``: no transform, no phase table and no
    periodic grid, so no guard either.  A packet that leaves the grid is
    sampled as it is, not wrapped.  The ``exp`` runs only on the grid slice
    within ``reach`` of the centre, where |psi| >= eps^2 times its peak
    (eps the float64 epsilon); every other point is 0.  Each value in the
    slice is the one a full-grid evaluation gives, bit for bit.
    """
    hbar, m, sigma = units.hbar, units.mass, spec.sigma
    ledger = _ledger(v0, t, units, "left")
    c = ledger.potential_phase_coeff
    centre = spec.x0 + spec.p0 * t / m - ledger.argument_shift
    d = complex(1.0, hbar * t / (m * sigma**2))
    phase = spec.p0**2 * t / (2.0 * m * hbar) + c * centre + ledger.cubic_phase
    log_norm = -0.25 * math.log(math.pi) - 0.5 * math.log(sigma)
    const = complex(log_norm, phase) - 0.5 * cmath.log(d)
    alpha = -0.5 / (sigma**2 * d)
    # |psi| / peak = exp(Re(alpha) w^2), and Re(alpha) < 0 for every t
    reach = math.sqrt(_LOG_TAIL / alpha.real)
    lo = np.searchsorted(grid.x, centre - reach)
    hi = np.searchsorted(grid.x, centre + reach, side="right")
    amps = np.zeros(grid.n, dtype=complex)
    w = grid.x[lo:hi] - centre
    exponent = alpha * w
    exponent += 1j * (spec.p0 / hbar + c)
    exponent *= w
    exponent += const
    np.exp(exponent, out=amps[lo:hi])
    return WaveFunction(grid, amps, time=t)


def plane_wave_phase(
    p: float, v0: float, dt: float, units: UnitSystem = NATURAL
) -> PlaneWavePhase:
    """Exact phase factor acquired by the momentum eigenstate |p>.

    Decomposed in the right ordering so callers can isolate the cubic term
    (the only part that survives kick-balanced segment compositions); the
    outgoing eigenstate is |p - v0*dt>.
    """
    ledger = _ledger(v0, dt, units, "right")
    kicked = p - ledger.momentum_kick
    return PlaneWavePhase(
        cubic=ledger.cubic_phase,
        p_linear=ledger.momentum_shift_phase_coeff * p,
        free_kicked=-(kicked**2) * dt / (2.0 * units.mass * units.hbar),
        kicked_momentum=kicked,
    )

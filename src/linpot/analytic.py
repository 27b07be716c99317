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
output is bit-identical to ``scipy.fft.fft``/``ifft``.
The left ordering is written once, as a function of the initial state's
spectrum: :func:`linear_evolve` transforms its input and calls it, and
``linpot evolve``, which compares the solver with the closed form at every
snapshot, transforms psi0 once per run and reuses that spectrum for every
snapshot time, with the same result to the last bit.

Sign conventions in one place: mean position gains -V0 dt^2/(2m) (constant
acceleration -V0/m), mean momentum gains -V0 dt, while the *argument* of the
free-evolved profile is shifted by +V0 dt^2/(2m) -- the classical motion under
the opposite potential.  Negative dt is allowed everywhere and is the exact
inverse evolution.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, replace

import numpy as np

from .core import (
    _EDGE_BAND,
    _EDGE_THRESHOLD,
    NATURAL,
    UnitSystem,
    WaveFunction,
    _band_share,
    _edge_share,
    _fft,
    _ifft,
    to_momentum_rep,
    to_position_rep,
)
from .errors import BoundaryContaminationWarning, CoverageError

__all__ = [
    "PhaseLedger",
    "EvolutionResult",
    "PlaneWavePhase",
    "ZassenhausTerms",
    "free_evolve",
    "linear_evolve",
    "linear_evolve_momentum",
    "plane_wave_phase",
    "zassenhaus_terms",
    "spectral_shift",
]


@dataclass(frozen=True)
class PhaseLedger:
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


@dataclass(frozen=True)
class EvolutionResult:
    """Evolved state plus its phase ledger."""

    psi: WaveFunction
    ledger: PhaseLedger


@dataclass(frozen=True)
class PlaneWavePhase:
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


@dataclass(frozen=True)
class ZassenhausTerms:
    """Scalar coefficients of the two surviving expansion terms.

    C2 = i * c2_coeff * p_hat and C3 = i * c3_coeff * identity; every higher
    term vanishes because C3 is already a c-number.
    """

    c2_coeff: float
    c3_coeff: float


def _check_boundary(psi: WaveFunction) -> None:
    share = _band_share(psi.amps)
    if share > _EDGE_THRESHOLD:
        warnings.warn(
            f"{share:.2e} of the norm sits in the outer "
            f"{_EDGE_BAND:.0%} of the grid; results are "
            "contaminated by periodic wraparound",
            BoundaryContaminationWarning,
            stacklevel=3,
        )


def free_evolve(
    psi: WaveFunction, dt: float, units: UnitSystem = NATURAL
) -> WaveFunction:
    """Evolve with no potential: multiply the momentum representation by
    exp(-i p^2 dt / (2 m hbar)).  Exact to spectral precision; negative dt
    is the inverse evolution."""
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if psi.space == "momentum":
        hbar, m = units.hbar, units.mass
        phase = np.exp(-1j * psi.p_axis**2 * dt / (2.0 * m * hbar))
        return psi.with_amps(psi.amps * phase, time=psi.time + dt)
    out = _free_from_spectrum(psi, _fft(psi.amps), dt, units)
    _check_boundary(out)
    return out


def _free_from_spectrum(psi, spectrum, dt, units):
    """``psi`` freely evolved by ``dt``, given ``spectrum = fft(psi.amps)``."""
    g = psi.grid
    kinetic = np.exp(-1j * units.hbar * g.k_wrap**2 * dt / (2.0 * units.mass))
    return psi.with_amps(_ifft(spectrum * kinetic), time=psi.time + dt)


def spectral_shift(psi: WaveFunction, shift: float) -> WaveFunction:
    """Exact band-limited translation: returns amps(x) = psi(x + shift)."""
    if shift == 0.0:
        return psi
    g = psi.grid
    amps = _ifft(_fft(psi.amps) * np.exp(1j * g.k_wrap * shift))
    return psi.with_amps(amps)


def _wrap_share(amps, axis, lo, hi, width, shift) -> float:
    """Share of the norm on the edge strip that translating the argument by
    ``shift`` wraps around: axis < lo + width for a positive shift, axis >
    hi - width for a negative one (``axis`` ascending)."""
    if shift > 0:
        return _edge_share(amps, int(np.searchsorted(axis, lo + width, "left")), 0)
    n_hi = len(axis) - int(np.searchsorted(axis, hi - width, "right"))
    return _edge_share(amps, 0, n_hi)


def _check_wrap_contamination(psi: WaveFunction, shift: float) -> None:
    """Translating by ``shift`` wraps an edge strip of that width around; a
    state with real mass there would corrupt the opposite edge."""
    if shift == 0.0:
        return
    g = psi.grid
    width = min(abs(shift), g.span)
    share = _wrap_share(psi.amps, g.x, g.x[0], g.x[-1], width, shift)
    if share > _EDGE_THRESHOLD:
        raise CoverageError(
            f"argument shift {shift!r} would wrap {share:.2e} of the "
            f"norm around the grid edge; widen the grid by at least {width!r}"
        )


def _ledger(v0: float, dt: float, units: UnitSystem, ordering: str) -> PhaseLedger:
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
    """Evolve a position-representation state under V(x) = v0*x + offset.

    ``ordering`` selects which exact factorization is applied ("left" puts
    the free evolution first, "right" last); both produce the same state to
    roundoff and differ only in how the ledger splits the pure phases.  The
    constant ``offset`` contributes the global phase exp(-i offset dt/hbar)
    and nothing else.

    Raises :class:`CoverageError` when the argument shift would wrap real
    probability around the periodic grid; ``check_coverage=False`` disables
    that guard for deliberately periodic states (plane waves), for which the
    wraparound is exact.
    """
    if psi.space != "position":
        raise ValueError("linear_evolve expects a position-representation state; "
                         "use linear_evolve_momentum for momentum input")
    if ordering not in ("left", "right"):
        raise ValueError(f"unknown ordering {ordering!r}")
    if not np.isfinite(dt):
        raise ValueError("dt must be finite")
    if ordering == "left":
        return _left_evolve(
            psi, _fft(psi.amps), v0, dt, units, offset, check_coverage
        )
    ledger = _ledger(v0, dt, units, ordering)
    shift = ledger.argument_shift
    if check_coverage:
        _check_wrap_contamination(psi, -shift)
    phi = spectral_shift(psi, -shift)
    phi = _position_phases(phi, v0, dt, ledger, units, offset)
    return EvolutionResult(free_evolve(phi, dt, units), ledger)


def _left_evolve(psi, spectrum, v0, dt, units, offset=0.0, check_coverage=True):
    """The left ordering of :func:`linear_evolve` for the position state
    ``psi``, given ``spectrum = core._fft(psi.amps)``.

    Free evolution, the boundary warning, the wrap guard, the argument shift,
    then the x-linear, cubic and offset phases.  A caller that evolves one
    state to many times transforms it once and passes the same spectrum to
    every call; the result is bit for bit that of :func:`linear_evolve`.
    """
    ledger = _ledger(v0, dt, units, "left")
    shift = ledger.argument_shift
    phi = _free_from_spectrum(psi, spectrum, dt, units)
    _check_boundary(phi)
    if check_coverage:
        _check_wrap_contamination(phi, shift)
    phi = spectral_shift(phi, shift)
    return EvolutionResult(_position_phases(phi, v0, dt, ledger, units, offset), ledger)


def _position_phases(psi, v0, dt, ledger, units, offset):
    """``psi`` times the x-linear phase, the ledger's cubic phase and the
    offset's global phase, in that order."""
    hbar = units.hbar
    x_phase = np.exp(-1j * v0 * psi.grid.x * dt / hbar)
    offset_phase = np.exp(-1j * offset * dt / hbar) if offset else 1.0
    return psi.with_amps(
        psi.amps * x_phase * np.exp(1j * ledger.cubic_phase) * offset_phase
    )


def linear_evolve_momentum(
    psi_tilde: WaveFunction,
    v0: float,
    dt: float,
    units: UnitSystem = NATURAL,
) -> EvolutionResult:
    """Momentum-representation mirror of :func:`linear_evolve`.

    Applies psi~(p, t) = e^{+i V0^2 dt^3/(3 m hbar)} e^{+i V0 p dt^2/(2 m hbar)}
    psi~_free(p + V0 dt, t).  The momentum-argument shift is spectral
    (a position-domain phase multiplication), never interpolation.
    """
    if psi_tilde.space != "momentum":
        raise ValueError("linear_evolve_momentum expects a momentum-representation state")
    hbar, m = units.hbar, units.mass
    kick = v0 * dt
    phi = free_evolve(psi_tilde, dt, units)

    # g(p) -> g(p + kick): wrap check on the receiving edge, then translate
    # via the conjugate (position) domain.
    if kick != 0.0:
        p = phi.p_axis
        width = min(abs(kick), (p[-1] - p[0]) / 2.0)
        share = _wrap_share(phi.amps, p, p[0], p[-1], width, kick)
        if share > _EDGE_THRESHOLD:
            raise CoverageError(
                f"momentum kick {kick!r} would wrap {share:.2e} of the "
                "norm around the momentum-grid edge"
            )
        pos = to_position_rep(phi, units)
        pos = pos.with_amps(pos.amps * np.exp(-1j * kick * pos.grid.x / hbar))
        phi = to_momentum_rep(pos, units)

    ledger = _ledger(v0, dt, units, "right")
    phase = np.exp(
        1j * (ledger.cubic_phase + v0 * phi.p_axis * dt**2 / (2.0 * m * hbar))
    )
    out = phi.with_amps(phi.amps * phase)
    # Eq-11 form carries the right-ordering cubic but the +V0 p dt^2/(2m hbar)
    # coefficient; record what was actually applied.
    ledger = replace(ledger, momentum_shift_phase_coeff=+v0 * dt**2 / (2.0 * m * hbar))
    return EvolutionResult(out, ledger)


def plane_wave_phase(
    p: float, v0: float, dt: float, units: UnitSystem = NATURAL
) -> PlaneWavePhase:
    """Exact phase factor acquired by the momentum eigenstate |p>.

    Decomposed in the right ordering so callers can isolate the cubic term
    (the only part that survives kick-balanced segment compositions); the
    outgoing eigenstate is |p - v0*dt>.
    """
    hbar, m = units.hbar, units.mass
    kicked = p - v0 * dt
    return PlaneWavePhase(
        cubic=v0**2 * dt**3 / (3.0 * m * hbar),
        p_linear=-v0 * p * dt**2 / (2.0 * m * hbar),
        free_kicked=-(kicked**2) * dt / (2.0 * m * hbar),
        kicked_momentum=kicked,
    )


def zassenhaus_terms(
    v0: float, dt: float, units: UnitSystem = NATURAL
) -> ZassenhausTerms:
    """Coefficients of the two surviving expansion terms.

    c2_coeff scales as dt^2 and c3_coeff as dt^3; both vanish at v0 = 0.
    """
    hbar, m = units.hbar, units.mass
    return ZassenhausTerms(
        c2_coeff=v0 * dt**2 / (2.0 * m * hbar),
        c3_coeff=-(v0**2) * dt**3 / (6.0 * m * hbar),
    )

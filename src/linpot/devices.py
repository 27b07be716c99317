"""Beam devices built on the exact linear-potential evolution: a three-segment
electrostatic phase-shift generator (PSG), a Stern-Gerlach splitter, and the
composed spin-flip gate.

All devices are 1-D transverse plus a spin label: the longitudinal motion
factors out exactly because position and momentum operators along different
axes commute.  Spin-1/2 bases are related by

    |S_z, +-> = (|S_x, +> +- |S_x, ->) / sqrt(2)

PSG sign reconciliation
-----------------------
The PSG drives one beam through three capacitor segments of lengths
(L, 2L, L) with transverse potential slopes (+V0, -V0, +V0) and segment
durations (dt, 2dt, dt), dt = L/v.  The momentum kicks cancel
(V0 dt - 2 V0 dt + V0 dt = 0) and so does the transverse displacement, so the
beam exits undeflected; composing the exact per-segment phases leaves

    phase = -2 V0^2 L^3 / (3 hbar m v^3)

relative to free flight, for *any* transverse momentum (the p-dependent terms
cancel segment by segment against the free phases).  The minus sign is fixed
by this composition; flipping V0 -> -V0 leaves it unchanged (quadratic).  The
cubic per-segment terms carry the opposite-ordering sign (+V0^2 dt^3/3m hbar
each), and the net negative total emerges from the cross terms -- the
composition below is the executable form of that bookkeeping.  The segment
ledger, :func:`compose_segments`, checks the kick and displacement balance
of any segment sequence; the PSG's balance by construction.

The Stern-Gerlach stage applies the linear evolution with an operator-valued
slope: V0 -> -coupling * sigma_axis, so the sigma_axis = +1 branch sees slope
-coupling (kick +coupling*dt) and the -1 branch the opposite.  The recombining
stage of the spin-flip circuit is implemented as the formal inverse of the
splitting stage; a physical recombiner is an idealization this module does
not model.
"""

from __future__ import annotations

import cmath
import math
from numbers import Real
from typing import NamedTuple

import numpy as np

from .analytic import free_evolve, linear_evolve, plane_wave_phase
from .core import (
    HBAR_SI,
    NATURAL,
    UnitSystem,
    WaveFunction,
    _finite,
    _input,
    _positive,
    spatial_width,
)
from .errors import BranchMismatchError, GeometryError, InfeasibleError, PreconditionError

__all__ = [
    "SpinorPacket",
    "SpinDensity",
    "PsgGeometry",
    "SgSpec",
    "psg_phase",
    "psg_compose",
    "compose_segments",
    "PsgComposition",
    "sg_apply",
    "spin_flip_circuit",
    "GateResult",
    "solve_psg_for_phase",
]

_SQRT2 = math.sqrt(2.0)

# eHbar/(2 m_e) in SI; used when a Stern-Gerlach stage is built from a field
# strength instead of a ready-made coupling.
ELEMENTARY_CHARGE_SI = 1.602176634e-19
ELECTRON_MASS_SI = 9.1093837015e-31


# ---------------------------------------------------------------------------
# Spin-1/2 state containers
# ---------------------------------------------------------------------------


def _hadamard(a, b):
    """((a + b)/sqrt(2), (a - b)/sqrt(2)): the change between the z and x
    spin bases, its own inverse."""
    return (a + b) / _SQRT2, (a - b) / _SQRT2


def _reference(up: WaveFunction, down: WaveFunction):
    """(the spinor component of the larger norm, up on a tie, and its norm):
    the phase reference of the spin amplitudes and the spatial profile of
    the spin-flip circuit's output."""
    ref = up if up.norm2() >= down.norm2() else down
    return ref, math.sqrt(ref.norm2())


@_input
class SpinorPacket:
    """Two-component wave-function in a labelled spin basis ("z" or "x")."""

    up: WaveFunction
    down: WaveFunction
    basis: str = "z"

    def __post_init__(self):
        if self.basis not in ("z", "x"):
            raise ValueError(f"unknown spin basis {self.basis!r}")
        if self.up.grid != self.down.grid:
            raise ValueError("spinor components must share one grid")

    def norm2(self) -> float:
        return self.up.norm2() + self.down.norm2()

    def to_basis(self, basis: str) -> "SpinorPacket":
        """Hadamard change between the z and x bases (involutive)."""
        if basis == self.basis:
            return self
        plus, minus = _hadamard(self.up.amps, self.down.amps)
        return SpinorPacket(self.up.with_amps(plus), self.up.with_amps(minus), basis)

    def spin_vector(self) -> np.ndarray:
        """Global spin amplitudes (c_up, c_down) for a product state.

        Defined up to the common spatial profile; uses the dominant component
        as the phase reference.
        """
        ref, scale = _reference(self.up, self.down)
        if scale == 0.0:
            raise ValueError("cannot extract spin amplitudes from a null state")
        inner_up = np.sum(np.conj(ref.amps) * self.up.amps) * ref.grid.dx
        inner_down = np.sum(np.conj(ref.amps) * self.down.amps) * ref.grid.dx
        return np.array([inner_up, inner_down]) / scale


@_input
class SpinDensity:
    """2x2 Hermitian spin density matrix plus per-branch momentum labels.

    The matrix lives in the x basis (the splitting axis); ``branch_momenta``
    records the transverse plane-wave momentum attached to each sigma_x
    eigenvalue, so a post-splitter state is a proper mixture of momentum-
    labelled branches.
    """

    matrix: np.ndarray
    branch_momenta: tuple = (0.0, 0.0)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=complex)
        if m.shape != (2, 2):
            raise ValueError("spin density must be 2x2")
        if not np.isfinite(m).all():
            raise ValueError("spin density must have finite entries")
        if not np.allclose(m, m.conj().T, atol=1e-14):
            raise ValueError("spin density must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError("spin density must have unit trace")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < -1e-12 or eig.max() > 1.0 + 1e-12:
            raise ValueError("spin density eigenvalues must lie in [0, 1]")
        momenta = tuple(float(p) for p in self.branch_momenta)
        if len(momenta) != 2:
            raise ValueError(f"branch_momenta must hold two momenta, got {len(momenta)}")
        for p in momenta:
            _finite(branch_momenta=p)
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "branch_momenta", momenta)

    @staticmethod
    def unpolarized(momentum: float = 0.0) -> "SpinDensity":
        return SpinDensity(np.eye(2) / 2.0, (momentum, momentum))

    def branch_probabilities(self) -> tuple:
        """(p_plus, p_minus): the probabilities of the two sigma_x branches,
        in the order of ``branch_momenta``."""
        return float(self.matrix[0, 0].real), float(self.matrix[1, 1].real)


# ---------------------------------------------------------------------------
# Phase Shift Generator
# ---------------------------------------------------------------------------


@_input
class PsgGeometry:
    """Three-capacitor geometry: lengths (L, 2L, L), slopes (+V0, -V0, +V0).

    ``v`` is the longitudinal beam speed, so the segment durations are
    (dt, 2dt, dt) with dt = L/v; ``mass`` is the beam particle's mass.
    """

    v0: float
    length: float
    speed: float
    mass: float = 1.0

    def __post_init__(self):
        _finite(v0=self.v0)
        _positive(length=self.length, speed=self.speed, mass=self.mass)

    @property
    def dwell(self) -> float:
        return self.length / self.speed

    @property
    def total_time(self) -> float:
        return 4.0 * self.dwell

    def segments(self) -> tuple:
        dt = self.dwell
        return ((self.v0, dt), (-self.v0, 2.0 * dt), (self.v0, dt))


def psg_phase(g: PsgGeometry, units: UnitSystem = NATURAL) -> float:
    """Closed-form relative phase -2 V0^2 L^3 / (3 hbar m v^3), with m the
    geometry's beam mass; only hbar comes from ``units``."""
    return -2.0 * g.v0**2 * g.length**3 / (3.0 * units.hbar * g.mass * g.speed**3)


class PsgComposition(NamedTuple):
    """Outcome of composing the three segments on a plane wave or packet."""

    relative_phase: float
    evolved: WaveFunction | None = None


def compose_segments(
    segments,
    p: float,
    units: UnitSystem = NATURAL,
) -> PsgComposition:
    """Exact phase of a plane wave |p> of mass ``units.mass`` through
    (slope, dt) segments, relative to free flight over the same total time.

    Tracks the classical (displacement, momentum) pair through the sequence
    and demands both return to zero at exit -- the geometry consistency
    condition for an interferometer arm.
    """
    _finite(p=p)
    mass = units.mass
    total = 0.0
    t_total = 0.0
    disp, kick = 0.0, 0.0
    disp_scale = kick_scale = 0.0  # cancellation magnitudes for the tolerance
    p_now = p
    for v, dt in segments:
        _finite(slope=v, duration=dt)
        part = plane_wave_phase(p_now, v, dt, units)
        total += part.total
        step = kick / mass * dt - v * dt**2 / (2.0 * mass)
        disp += step
        kick -= v * dt
        disp_scale = max(disp_scale, abs(step))
        kick_scale = max(kick_scale, abs(v * dt))
        p_now = part.kicked_momentum
        t_total += dt
    free = -(p**2) * t_total / (2.0 * mass * units.hbar)
    if (
        abs(kick) > 1e-12 * max(1.0, kick_scale)
        or abs(disp) > 1e-12 * max(1.0, disp_scale)
    ):
        raise GeometryError(
            f"segment sequence is not balanced: net kick {kick!r}, "
            f"net displacement {disp!r}"
        )
    return PsgComposition(relative_phase=total - free)


def psg_compose(
    g: PsgGeometry,
    input_state,
    units: UnitSystem = NATURAL,
    override_width_check: bool = False,
) -> PsgComposition:
    """Compose the three PSG segments on a plane wave (a real momentum, not
    a bool) or a transverse wave-packet.

    The beam's mass is the geometry's; only hbar comes from ``units``.  A
    plane wave goes through :func:`compose_segments`.  For packet input the
    capacitor length must dominate the packet width (length/width >= 20)
    unless ``override_width_check`` is set; the composed evolution then
    returns the evolved state and the phase extracted against pure free
    evolution over 4 dt.
    """
    u = units.with_mass(g.mass)
    if isinstance(input_state, Real) and not isinstance(input_state, bool):
        return compose_segments(g.segments(), float(input_state), u)

    psi = input_state
    if not isinstance(psi, WaveFunction):
        raise TypeError("input must be a momentum value or a WaveFunction")
    width = spatial_width(psi)
    if not override_width_check and g.length < 20.0 * width:
        raise PreconditionError(
            f"capacitor length {g.length!r} is less than 20x the packet "
            f"width {width!r}; pass override_width_check=True to force"
        )
    state = psi
    for v, dt in g.segments():
        state = linear_evolve(state, v, dt, ordering="left", units=u).psi
    reference = free_evolve(psi, g.total_time, u)
    overlap = complex(
        np.sum(np.conj(reference.amps) * state.amps) * state.grid.dx
    )
    return PsgComposition(relative_phase=cmath.phase(overlap), evolved=state)


def solve_psg_for_phase(
    target: float,
    v0: float | None = None,
    length: float | None = None,
    speed: float | None = None,
    units: UnitSystem = NATURAL,
) -> PsgGeometry:
    """Complete a geometry for a beam of mass ``units.mass`` so that its
    phase equals ``target`` modulo 2 pi.

    Exactly one of v0, length, speed must be None (the free parameter).  The
    closed form only reaches phases in (-inf, 0], so the target is reduced to
    the representative -theta with theta = (-target) mod 2pi before inverting;
    the round trip then satisfies exp(i*(psg_phase - target)) = 1 to 1e-12.
    The target must be finite and the given parameters must satisfy
    :class:`PsgGeometry`'s rules (else ValueError).  Raises
    :class:`InfeasibleError` when no positive real parameter exists.
    """
    _finite(target=target)
    free = [name for name, val in (("v0", v0), ("length", length), ("speed", speed)) if val is None]
    if len(free) != 1:
        raise ValueError("exactly one of v0, length, speed must be free")
    if v0 is not None:
        _finite(v0=v0)
    given = (("length", length), ("speed", speed))
    _positive(**{name: value for name, value in given if value is not None})
    theta = (-target) % (2.0 * math.pi)
    hbar, mass = units.hbar, units.mass

    if free == ["v0"]:
        v0 = math.sqrt(3.0 * hbar * mass * speed**3 * theta / (2.0 * length**3))
        return PsgGeometry(v0, length, speed, mass)
    if free == ["length"]:
        if v0 == 0.0 or theta == 0.0:
            raise InfeasibleError(
                "length is free but the requested phase needs L^3 = "
                f"{0.0 if v0 else math.inf}; no positive solution"
            )
        length = (3.0 * hbar * mass * speed**3 * theta / (2.0 * v0**2)) ** (1.0 / 3.0)
        return PsgGeometry(v0, length, speed, mass)
    if theta == 0.0 or v0 == 0.0:
        raise InfeasibleError(
            "speed is free but the requested phase admits no positive speed"
        )
    speed = (2.0 * v0**2 * length**3 / (3.0 * hbar * mass * theta)) ** (1.0 / 3.0)
    return PsgGeometry(v0, length, speed, mass)


# ---------------------------------------------------------------------------
# Stern-Gerlach splitter
# ---------------------------------------------------------------------------


@_input
class SgSpec:
    """One Stern-Gerlach stage: spin-dependent slope -coupling * sigma_axis.

    ``axis`` is +1 for a field along +x, -1 for -x.  ``coupling`` is the
    slope magnitude (field strength times magnetic moment); build it from a
    field strength with :meth:`from_field`.  The momentum kick imparted to
    the sigma_axis = +1 branch is +delta_p = +coupling * duration.
    """

    coupling: float
    duration: float
    axis: int = +1

    def __post_init__(self):
        if isinstance(self.axis, (bool, np.bool_)) or self.axis not in (+1, -1):
            raise ValueError("axis must be +1 (+x) or -1 (-x)")
        _positive(duration=self.duration)
        if not 0.0 <= self.coupling < np.inf:
            raise ValueError("coupling must be non-negative and finite")

    @staticmethod
    def from_field(b0: float, duration: float) -> "SgSpec":
        """A +x stage of coupling e*hbar/(2*m_e) * B0 for an electron, SI units."""
        coupling = ELEMENTARY_CHARGE_SI * HBAR_SI / (2.0 * ELECTRON_MASS_SI) * b0
        return SgSpec(coupling, duration)

    @property
    def delta_p(self) -> float:
        return self.coupling * self.duration

    def branch_slope(self, sigma_x: int) -> float:
        """Effective scalar slope seen by a sigma_x eigenstate."""
        return -self.coupling * self.axis * sigma_x


def sg_apply(state, sg: SgSpec, units: UnitSystem = NATURAL):
    """Send a spinor packet or a spin density through one SG stage.

    Packet input: each sigma_x component is evolved exactly under its branch
    slope; the result is returned in the x basis.  Density input: branch
    momentum labels pick up -+delta_p and spin coherences between now
    distinguishable branches are erased (plane-wave branch orthogonality);
    trace, Hermiticity and positivity are preserved.
    """
    if isinstance(state, SpinorPacket):
        sx = state.to_basis("x")
        res_up = linear_evolve(sx.up, sg.branch_slope(+1), sg.duration, units=units)
        res_down = linear_evolve(sx.down, sg.branch_slope(-1), sg.duration, units=units)
        return SpinorPacket(res_up.psi, res_down.psi, "x")
    if isinstance(state, SpinDensity):
        # a branch of slope v gains momentum -v * duration
        new_momenta = tuple(
            p - sg.branch_slope(s) * sg.duration for p, s in zip(state.branch_momenta, (+1, -1))
        )
        m = state.matrix.copy()
        if new_momenta[0] != new_momenta[1]:
            m[0, 1] = 0.0
            m[1, 0] = 0.0
        return SpinDensity(m, new_momenta)
    raise TypeError(f"cannot apply a SG stage to {type(state).__name__}")


# ---------------------------------------------------------------------------
# Spin-flip gate: split along +x, phase one branch, recombine along -x
# ---------------------------------------------------------------------------


class GateResult(NamedTuple):
    """Output of the spin-flip circuit.

    ``spinor`` is the recombined packet in the z basis; ``phase`` is the
    relative phase the PSG printed on the lower branch; ``flip_fidelity`` is
    |<flip(chi_in)|chi_out>|^2 where flip swaps the z components.
    """

    spinor: SpinorPacket
    phase: float
    flip_fidelity: float

    def z_populations(self) -> tuple:
        n = self.spinor.norm2()
        return (self.spinor.up.norm2() / n, self.spinor.down.norm2() / n)


def _fidelity(a, b) -> float:
    """|<a|b>|^2 / (<a|a><b|b>): 1 when the spin vectors agree up to phase."""
    return float(abs(np.vdot(a, b)) ** 2 / (np.vdot(a, a).real * np.vdot(b, b).real))


def spin_flip_circuit(
    state: SpinorPacket,
    sg_up: SgSpec,
    psg: PsgGeometry | None,
    sg_down: SgSpec,
    units: UnitSystem = NATURAL,
) -> GateResult:
    """Split along +x, phase the lower branch with the PSG, recombine along -x.

    The recombiner is the formal inverse of the splitter, so the two stages
    must match (same coupling and duration, opposite axes); a mismatch raises
    :class:`BranchMismatchError`.  The PSG's beam is the carrier, so its mass
    must be ``units.mass`` (else ValueError).  On the spin state the circuit
    acts as

        (|S_x,+> +- |S_x,->)/sqrt(2)  ->  (|S_x,+> +- e^{i phi} |S_x,->)/sqrt(2)

    with phi = psg_phase (0 with the PSG removed); phi = pi modulo 2 pi
    reverses a z-basis input.  The returned packet's spatial profile is the
    input profile free-evolved over the total circuit duration -- the
    idealized recombination restores the transverse state exactly.
    """
    if sg_up.axis != +1 or sg_down.axis != -1:
        raise BranchMismatchError("first stage must be +x, second -x")
    if not (
        math.isclose(sg_up.coupling, sg_down.coupling, rel_tol=1e-12)
        and math.isclose(sg_up.duration, sg_down.duration, rel_tol=1e-12)
    ):
        raise BranchMismatchError(
            "recombining stage must mirror the splitting stage to undo its kicks"
        )
    if psg is not None and psg.mass != units.mass:
        raise ValueError(f"PSG mass {psg.mass!r} is not the carrier's mass {units.mass!r}")
    z = state.to_basis("z")
    chi = z.spin_vector()  # (c_up, c_down) in z basis
    x_plus, x_minus = _hadamard(chi[0], chi[1])

    phase = psg_phase(psg, units) if psg is not None else 0.0
    x_minus = x_minus * cmath.exp(1j * phase)

    out_up, out_down = _hadamard(x_plus, x_minus)

    duration = 2.0 * sg_up.duration + (psg.total_time if psg is not None else 0.0)
    profile, scale = _reference(z.up, z.down)
    carrier = free_evolve(profile.with_amps(profile.amps / scale), duration, units)
    spinor = SpinorPacket(
        carrier.with_amps(carrier.amps * out_up),
        carrier.with_amps(carrier.amps * out_down),
        "z",
    )
    # fidelity against the z-swapped input spin state
    fidelity = _fidelity(np.array([chi[1], chi[0]]), np.array([out_up, out_down]))
    return GateResult(spinor=spinor, phase=phase, flip_fidelity=fidelity)

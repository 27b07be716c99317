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
composition below is the executable form of that bookkeeping.  One segment
ledger, :func:`compose_segments`, checks the kick and displacement balance
for plane-wave and packet input alike.

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
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .analytic import free_evolve, linear_evolve, plane_wave_phase
from .core import HBAR_SI, NATURAL, UnitSystem, WaveFunction, spatial_width
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


@dataclass(frozen=True)
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
        plus = self.up.with_amps((self.up.amps + self.down.amps) / _SQRT2)
        minus = self.up.with_amps((self.up.amps - self.down.amps) / _SQRT2)
        return SpinorPacket(plus, minus, basis)

    def spin_vector(self) -> np.ndarray:
        """Global spin amplitudes (c_up, c_down) for a product state.

        Defined up to the common spatial profile; uses the dominant component
        as the phase reference.
        """
        n_up = self.up.norm2()
        n_down = self.down.norm2()
        ref = self.up if n_up >= n_down else self.down
        scale = math.sqrt(ref.norm2())
        if scale == 0.0:
            raise ValueError("cannot extract spin amplitudes from a null state")
        inner_up = np.sum(np.conj(ref.amps) * self.up.amps) * ref.grid.dx
        inner_down = np.sum(np.conj(ref.amps) * self.down.amps) * ref.grid.dx
        return np.array([inner_up, inner_down]) / scale


@dataclass(frozen=True)
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
        if not np.allclose(m, m.conj().T, atol=1e-14):
            raise ValueError("spin density must be Hermitian")
        if abs(np.trace(m).real - 1.0) > 1e-12:
            raise ValueError("spin density must have unit trace")
        eig = np.linalg.eigvalsh(m)
        if eig.min() < -1e-12 or eig.max() > 1.0 + 1e-12:
            raise ValueError("spin density eigenvalues must lie in [0, 1]")
        object.__setattr__(self, "matrix", m)
        object.__setattr__(
            self, "branch_momenta", tuple(float(p) for p in self.branch_momenta)
        )

    @staticmethod
    def unpolarized(momentum: float = 0.0) -> "SpinDensity":
        return SpinDensity(np.eye(2) / 2.0, (momentum, momentum))

    def branch_probabilities(self) -> dict:
        """{branch momentum: probability} for the two sigma_x branches."""
        return {
            self.branch_momenta[0]: float(self.matrix[0, 0].real),
            self.branch_momenta[1]: float(self.matrix[1, 1].real),
        }


# ---------------------------------------------------------------------------
# Phase Shift Generator
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
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
        _check_psg(self.v0, self.length, self.speed, self.mass)

    @property
    def dwell(self) -> float:
        return self.length / self.speed

    @property
    def total_time(self) -> float:
        return 4.0 * self.dwell

    def segments(self) -> tuple:
        dt = self.dwell
        return ((self.v0, dt), (-self.v0, 2.0 * dt), (self.v0, dt))


def _check_psg(v0, length, speed, mass) -> None:
    """Raise ValueError unless v0 is finite and length, speed and mass are
    positive and finite; a parameter passed as None is not checked."""
    if v0 is not None and not np.isfinite(v0):
        raise ValueError("v0 must be finite")
    for name, value in (("length", length), ("speed", speed), ("mass", mass)):
        if value is not None and not 0.0 < value < np.inf:
            raise ValueError(f"{name} must be positive and finite")


def psg_phase(g: PsgGeometry, units: UnitSystem = NATURAL) -> float:
    """Closed-form relative phase -2 V0^2 L^3 / (3 hbar m v^3)."""
    return -2.0 * g.v0**2 * g.length**3 / (3.0 * units.hbar * g.mass * g.speed**3)


class PsgComposition(NamedTuple):
    """Outcome of composing the three segments on a plane wave or packet."""

    relative_phase: float
    evolved: WaveFunction | None = None


def compose_segments(
    segments,
    p: float,
    mass: float,
    units: UnitSystem = NATURAL,
) -> PsgComposition:
    """Exact phase of a plane wave |p> through a sequence of (slope, dt)
    segments, relative to free flight over the same total time.

    Tracks the classical (displacement, momentum) pair through the sequence
    and demands both return to zero at exit -- the geometry consistency
    condition for an interferometer arm.
    """
    u = units.with_mass(mass)
    total = 0.0
    t_total = 0.0
    disp, kick = 0.0, 0.0
    disp_scale = kick_scale = 0.0  # cancellation magnitudes for the tolerance
    p_now = p
    for v, dt in segments:
        part = plane_wave_phase(p_now, v, dt, u)
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
    """Compose the three PSG segments on a plane wave (float momentum) or a
    transverse wave-packet.

    For packet input the capacitor length must dominate the packet width
    (length/width >= 20) unless ``override_width_check`` is set; the composed
    evolution then returns the evolved state and the phase extracted against
    pure free evolution over 4 dt.  Either input goes through
    :func:`compose_segments`, which raises unless the segments' net kick and
    displacement vanish.
    """
    if isinstance(input_state, (int, float)):
        return compose_segments(g.segments(), float(input_state), g.mass, units)

    psi = input_state
    if not isinstance(psi, WaveFunction):
        raise TypeError("input must be a momentum value or a WaveFunction")
    width = spatial_width(psi)
    if not override_width_check and g.length < 20.0 * width:
        raise PreconditionError(
            f"capacitor length {g.length!r} is less than 20x the packet "
            f"width {width!r}; pass override_width_check=True to force"
        )
    compose_segments(g.segments(), 0.0, g.mass, units)  # the balance check
    u = units.with_mass(g.mass)
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
    mass: float = 1.0,
    units: UnitSystem = NATURAL,
) -> PsgGeometry:
    """Complete a geometry so that its phase equals ``target`` modulo 2 pi.

    Exactly one of v0, length, speed must be None (the free parameter).  The
    closed form only reaches phases in (-inf, 0], so the target is reduced to
    the representative -theta with theta = (-target) mod 2pi before inverting;
    the round trip then satisfies exp(i*(psg_phase - target)) = 1 to 1e-12.
    The given parameters must satisfy :class:`PsgGeometry`'s rules (else
    ValueError).  Raises :class:`InfeasibleError` when no positive real
    parameter exists.
    """
    free = [name for name, val in (("v0", v0), ("length", length), ("speed", speed)) if val is None]
    if len(free) != 1:
        raise ValueError("exactly one of v0, length, speed must be free")
    _check_psg(v0, length, speed, mass)
    theta = (-target) % (2.0 * math.pi)
    hbar = units.hbar

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


@dataclass(frozen=True)
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
        if self.axis not in (+1, -1):
            raise ValueError("axis must be +1 (+x) or -1 (-x)")
        if not 0.0 < self.duration < np.inf:
            raise ValueError("duration must be positive and finite")
        if not 0.0 <= self.coupling < np.inf:
            raise ValueError("coupling must be non-negative and finite")

    @staticmethod
    def from_field(b0: float, duration: float, axis: int = +1) -> "SgSpec":
        """Coupling = e*hbar/(2*m_e) * B0 for an electron, SI units."""
        coupling = ELEMENTARY_CHARGE_SI * HBAR_SI / (2.0 * ELECTRON_MASS_SI) * b0
        return SgSpec(coupling, duration, axis)

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
        kick = sg.axis * sg.delta_p
        new_momenta = (
            state.branch_momenta[0] + kick,
            state.branch_momenta[1] - kick,
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
    :class:`BranchMismatchError`.  On the spin state the circuit acts as

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
    z = state.to_basis("z")
    chi = z.spin_vector()  # (c_up, c_down) in z basis
    x_plus = (chi[0] + chi[1]) / _SQRT2
    x_minus = (chi[0] - chi[1]) / _SQRT2

    phase = psg_phase(psg, units) if psg is not None else 0.0
    x_minus = x_minus * cmath.exp(1j * phase)

    out_up = (x_plus + x_minus) / _SQRT2
    out_down = (x_plus - x_minus) / _SQRT2

    duration = 2.0 * sg_up.duration + (psg.total_time if psg is not None else 0.0)
    profile = z.up if z.up.norm2() >= z.down.norm2() else z.down
    scale = math.sqrt(profile.norm2())
    carrier = free_evolve(profile.with_amps(profile.amps / scale), duration, units)
    spinor = SpinorPacket(
        carrier.with_amps(carrier.amps * out_up),
        carrier.with_amps(carrier.amps * out_down),
        "z",
    )
    # fidelity against the z-swapped input spin state
    target = np.array([chi[1], chi[0]])
    out = np.array([out_up, out_down])
    fidelity = abs(np.vdot(target, out)) ** 2 / (
        np.vdot(target, target).real * np.vdot(out, out).real
    )
    return GateResult(spinor=spinor, phase=phase, flip_fidelity=float(fidelity))

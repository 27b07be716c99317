"""Barrier experiments: turning points, semiclassical transmission, and
measured transmission/reflection of Gaussian packets.

The canonical barrier rises linearly with slope ``slope`` from its base at
``x_start`` to ``peak_height``, then descends (mirror-linear by default) back
to zero.  For an incident energy E below the peak the classical turning
points a < b satisfy V(a) = V(b) = E.  Every barrier here is the polyline
through its knots, which is what the solver steps, so a and b are that
polyline's exact roots, one interpolation each.  The stretch D' between the
far edge of the linear front and ``a`` controls whether the incident packet
ever samples anything but the linear front.  When D' is much larger than
half the packet width at arrival, the packet is wholly pushed backwards;
this module operationalizes "tunneling suppressed" as T < 1e-4.

Transmission is *measured*, not derived: T is the probability found beyond b
plus whatever the right absorbing band removed, R the same on the left, and
the run ends once a bound on the transmission still to come is below
``STOP_BUDGET``.  The bound is the probability still between a and b plus
the part of the launch spectrum that free flight has not yet carried to the
barrier, weighted by the barrier's exact plane-wave transmission T(p)
(:func:`_transmission`, an Airy transfer matrix summed as Taylor series).
The semiclassical reference

    T(E) = exp(-2 sigma_R) / (1 + exp(-2 sigma_R)/4)^2,
    sigma_R = integral_a^b sqrt(2 m (V(x) - E)) / hbar dx

is provided for comparison, with sigma_R the exact action of the same knot
polyline, summed in closed form segment by segment; the width dependence of
the measured T has no closed form here and the width scan reports what it
finds, including any decrease of T beyond the scan's measurement floor
``SCAN_SLACK``.

Every measurement goes through the solver's one stride loop
(``oracle._stride_loop``), which builds the run's propagator once for its
stack, records each row's trajectory and stops at exactly ``cfg.n_steps``.
:func:`run_tunneling` steps a stack of one state; the width scan, whose
entries share p0, launch point, barrier, grid, dt and absorber, steps all of
them as one ``(B, n)`` stack.  This module adds only what a barrier run
measures: each row's launch spectrum, once, and after every stride its T, R
and residual and its stop bound; a row whose bound is below the budget
leaves the stack while the others step on.  Rows are stepped, summed and
tested exactly as they would be alone, and a row's bound depends only on
its own launch state, so a scan row is the result of a run of that entry to
the last bit.  A run's trajectory times count from launch; for a state at time 0
the trajectory equals :func:`split_step_evolve` of it for the same number of
steps, also to the last bit.  Every launch state must sit clear of the
absorbing bands: one with more than ``core._EDGE_THRESHOLD`` of its norm on
their points would be absorbed on its way in and counted as reflected.  It
must sit clear of the barrier too: one with more than that share at or
beyond ``x_start`` starts on the front, or past it, and its T measures no
transmission.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .analytic import free_evolve, spectral_shift
from .core import (
    _EDGE_THRESHOLD,
    HBAR_SI,
    NATURAL,
    GaussianSpec,
    Linear,
    PiecewiseLinear,
    SpatialGrid,
    UnitSystem,
    WaveFunction,
    _edge_share,
    _fft,
    _finite,
    _input,
    _positive,
    sample_gaussian,
)
from .errors import (
    DegenerateEnergyError,
    NoTurningPointsError,
    PreconditionError,
    StationarityTimeout,
)
from .oracle import (
    SolverConfig,
    Trajectory,
    _stride_loop,
    split_step_evolve,
)

__all__ = [
    "BarrierSpec",
    "TunnelingResult",
    "ScanResult",
    "turning_points",
    "wkb_sigma_R",
    "wkb_transmission",
    "wkb_transmission_from_action",
    "run_tunneling",
    "width_scan",
    "AnimationScenario",
    "animation_scenario",
    "SurrogateResult",
    "animation_surrogate",
]

# measurement floor of a width scan's T (see ScanResult.monotonicity_violations)
SCAN_SLACK = 1e-5
# a barrier row stops once the transmission still to come is below this
# (SCAN_SLACK / 10): two rows within it of their limits differ by less than
# the floor
STOP_BUDGET = 1e-6


@_input
class BarrierSpec:
    """Triangle barrier with a linear front.

    The front has slope ``slope`` over D = [x_start, x_peak] where
    x_peak = x_start + peak_height/slope; the descent beyond the peak has
    slope ``descent_slope`` (mirror of the front by default).  D'(E), the
    distance from the far edge of the front to the first turning point, is
    derived from the incident energy through :func:`turning_points`, never
    set directly.
    """

    x_start: float
    slope: float
    peak_height: float
    descent_slope: float | None = None

    def __post_init__(self):
        _finite(x_start=self.x_start)
        _positive(slope=self.slope, peak_height=self.peak_height)
        if self.descent_slope is not None:
            _positive(descent_slope=self.descent_slope)

    @property
    def down_slope(self) -> float:
        return self.slope if self.descent_slope is None else self.descent_slope

    @property
    def x_peak(self) -> float:
        return self.x_start + self.peak_height / self.slope

    @property
    def x_end(self) -> float:
        return self.x_peak + self.peak_height / self.down_slope

    def potential(self) -> PiecewiseLinear:
        return PiecewiseLinear(
            (
                (self.x_start, 0.0),
                (self.x_peak, self.peak_height),
                (self.x_end, 0.0),
            )
        )

    def d_prime(self, energy: float) -> float:
        """x_peak - a: how much linear front lies beyond the turning point."""
        return self.x_peak - turning_points(self, energy)[0]


def _knots(v):
    """(xs, vs): the knots of the polyline the solver steps (``np.interp``
    through them) for a barrier or a :class:`PiecewiseLinear`, the only
    forms with two flanks."""
    if isinstance(v, BarrierSpec):
        v = v.potential()
    if isinstance(v, PiecewiseLinear):
        return v.xs, v.vs
    raise TypeError(
        "turning_points needs a Linear or PiecewiseLinear potential "
        f"(or a BarrierSpec), got {type(v).__name__}"
    )


def _crossing(xs, vs, at, out, energy):
    """Where the segment from knot ``out`` (below E) to knot ``at`` (at or
    above E) crosses E; knot ``at`` itself when it sits exactly at E."""
    if vs[at] == energy:
        return float(xs[at])
    return float(xs[out] + (energy - vs[out]) * (xs[at] - xs[out]) / (vs[at] - vs[out]))


def turning_points(v, energy: float):
    """Classical turning points (a, b) with V(a) = V(b) = E of ``v``: a
    :class:`Linear` ramp, a :class:`PiecewiseLinear` or a :class:`BarrierSpec`.

    A barrier is the polyline through its knots (:func:`_knots`), which
    is what the solver steps, so each turning point is that polyline's exact
    root: a on the segment into the first knot at or above E before the
    peak, b on the segment out of the last such knot after it.  A sloped
    Linear ramp v0*x + offset crosses every finite energy once and never
    comes back down, so its forbidden side is unbounded: (a, +inf) for a
    rising ramp, (-inf, a) for a falling one; a flat one has no turning
    points.  Energy exactly at the peak degenerates to a = b.  Raises
    :class:`NoTurningPointsError` above the peak (and above a flat ramp)
    and :class:`DegenerateEnergyError` for an energy that is not finite or
    is at or below the base line (the higher of the two ends; a flat ramp's
    level).
    """
    if not math.isfinite(energy):
        raise DegenerateEnergyError(f"energy {energy!r} is not finite")
    if isinstance(v, Linear):
        if v.v0 == 0.0:
            if energy <= v.offset:
                raise DegenerateEnergyError(
                    f"energy {energy!r} is at or below the flat potential {v.offset!r}"
                )
            raise NoTurningPointsError(
                f"energy {energy!r} is above the flat potential {v.offset!r}"
            )
        a = (energy - v.offset) / v.v0
        return (a, math.inf) if v.v0 > 0.0 else (-math.inf, a)

    xs, vs = _knots(v)
    i = int(np.argmax(vs))
    base = float(max(vs[0], vs[-1]))
    if energy > vs[i]:
        raise NoTurningPointsError(
            f"energy {energy!r} exceeds the barrier peak {float(vs[i])!r}"
        )
    if energy <= base:
        raise DegenerateEnergyError(
            f"energy {energy!r} is not above the barrier base {base!r}"
        )
    j = int(np.argmax(vs[: i + 1] >= energy))
    k = i + int(np.flatnonzero(vs[i:] >= energy)[-1])
    return _crossing(xs, vs, j, j - 1, energy), _crossing(xs, vs, k, k + 1, energy)


def wkb_sigma_R(
    v: Linear | PiecewiseLinear | BarrierSpec, energy: float, units: UnitSystem = NATURAL
) -> float:
    """Dimensionless action integral sigma_R = int_a^b sqrt(2m(V-E))/hbar dx.

    Exact for the polyline through the barrier's knots (:func:`_knots`),
    summed segment by segment between the turning points.  On a segment of
    width dx where h = V - E runs linearly from h1 to h2, the integral of
    sqrt(h) is (2/3) dx (h1 + sqrt(h1 h2) + h2) / (sqrt(h1) + sqrt(h2)) when
    both ends are at or above E (no cancellation on a flat segment), and
    (2/3) dx h+^(3/2) / |h2 - h1| when h changes sign, h+ being the end
    above E; a stretch at or below E between a and b (a flat valley too)
    adds nothing.  Returns +inf when a turning point is infinite (a sloped
    :class:`Linear` ramp, at every finite energy: it has no far side) and
    exactly 0 when the energy sits at the peak.
    """
    a, b = turning_points(v, energy)
    if math.isinf(a) or math.isinf(b):
        return math.inf
    if b <= a:
        return 0.0
    xs, vs = _knots(v)
    inside = (xs > a) & (xs < b)
    x = [a, *xs[inside].tolist(), b]
    h = [0.0, *(vs[inside] - energy).tolist(), 0.0]
    total = 0.0
    for dx, h1, h2 in zip(np.diff(x).tolist(), h, h[1:]):
        if min(h1, h2) >= 0.0:
            if h1 + h2 > 0.0:
                root1, root2 = math.sqrt(h1), math.sqrt(h2)
                total += dx * (h1 + root1 * root2 + h2) / (root1 + root2)
        elif max(h1, h2) > 0.0:
            total += dx * max(h1, h2) ** 1.5 / abs(h2 - h1)
    return (2.0 / 3.0) * math.sqrt(2.0 * units.mass) / units.hbar * total


def wkb_transmission_from_action(sigma_r: float) -> float:
    """T = e^{-2 sigma_R} / (1 + e^{-2 sigma_R}/4)^2; exactly 0.64 at 0."""
    if not sigma_r >= 0.0:
        raise ValueError(f"sigma_r must be non-negative, got {sigma_r!r}")
    if math.isinf(sigma_r):
        return 0.0
    damp = math.exp(-2.0 * sigma_r)
    return damp / (1.0 + damp / 4.0) ** 2


def wkb_transmission(
    v: Linear | PiecewiseLinear | BarrierSpec, energy: float, units: UnitSystem = NATURAL
) -> float:
    """Semiclassical transmission of the barrier at the given energy."""
    return wkb_transmission_from_action(wkb_sigma_R(v, energy, units))


def _transmission(v, p, units=NATURAL):
    """T(p): the exact transmission of the polyline through the knots of
    ``v`` (:func:`_knots`) for a plane wave of momentum p > 0 incident from
    the left, one value per entry of the array ``p``.

    Beyond the last knot the wave is e^{i k_R x} alone.  (psi, psi') is
    carried from there to the first knot, segment by segment, where
    psi'' = (c0 + c1 u) psi, u measured from the segment's right end,
    c0 = 2m (V - E) / hbar^2 there and c1 = 2m V' / hbar^2: the Airy
    equation.  Each segment is cut into equal sub-steps no longer than
    3/kappa, kappa^2 the largest |c0 + c1 u| on it, and each sub-step's
    2x2 transfer matrix is the Taylor series of its two fundamental
    solutions, a_{n+2} = (c0 a_n + c1 a_{n-1}) / ((n+2)(n+1)), summed until
    its terms fall below 1e-18, for up to 64 sub-steps at once as one
    array.  After each such chunk (psi, psi') is rescaled and the log of the
    scale kept, so on a tall or wide barrier T underflows to 0 instead of
    (psi, psi') overflowing.  Before the first knot psi = A e^{i k_L x} +
    B e^{-i k_L x} and T = (k_R / k_L) / |A|^2, which is 0 where E does not
    exceed the level beyond the last knot (k_R = 0).
    """
    xs, vs = _knots(v)
    scale = 2.0 * units.mass / units.hbar**2
    energy = vs[0] + p**2 / (2.0 * units.mass)
    k_left = p / units.hbar
    k_right = np.sqrt(np.maximum(scale * (energy - vs[-1]), 0.0))
    psi, dpsi = np.ones(len(p), dtype=complex), 1j * k_right
    log_scale = np.zeros(len(p))
    for j in range(len(xs) - 2, -1, -1):
        length = float(xs[j + 1] - xs[j])
        c1 = scale * float(vs[j + 1] - vs[j]) / length
        c0 = scale * (vs[j + 1] - energy)
        kappa2 = max(np.max(np.abs(c0)), np.max(np.abs(c0 - c1 * length)))
        steps = max(1, math.ceil(length * math.sqrt(kappa2) / 3.0))
        h = -length / steps
        c1h3 = c1 * h**3
        # the pair carried is (psi, h psi'), so each sub-step's matrix is
        # that of the scaled series b_n = a_n h^n
        dpsi = dpsi * h
        for first in range(0, steps, 64):
            u = h * np.arange(first, min(first + 64, steps))
            c0h2 = (c0 + c1 * u[:, None]) * (h * h)
            # b_n of the solutions with (psi, h psi') = (1, 0) and (0, 1)
            b_prev = np.zeros((2, *c0h2.shape))
            b_now = np.zeros_like(b_prev)
            b_now[0] = 1.0
            b_next = np.zeros_like(b_prev)
            b_next[1] = 1.0
            at_end, slope_at_end = b_now + b_next, b_next.copy()
            n = 0
            while np.max(np.abs(b_now)) + np.max(np.abs(b_next)) >= 1e-18:
                term = c0h2 * b_now + c1h3 * b_prev
                term *= 1.0 / ((n + 2) * (n + 1))
                at_end += term
                slope_at_end += (n + 2) * term
                b_prev, b_now, b_next = b_now, b_next, term
                n += 1
            for a, b, c, d in zip(*at_end, *slope_at_end):
                psi, dpsi = a * psi + b * dpsi, c * psi + d * dpsi
            norm = np.maximum(np.abs(psi), np.abs(dpsi))
            psi /= norm
            dpsi /= norm
            log_scale += np.log(norm)
        dpsi = dpsi / h
    amp = 0.5 * (psi + dpsi / (1j * k_left))
    return (k_right / k_left) * np.exp(-2.0 * log_scale) / np.abs(amp) ** 2


class TunnelingResult(NamedTuple):
    """Measured outcome of one barrier run.

    T and R include the probability removed by the right/left absorbing band;
    ``residual`` is what remains between the measurement boundaries at
    ``t_measure``, so T + R + residual equals the initial norm up to solver
    roundoff.  ``t_a_measured`` is the time the mean position reaches (or
    comes closest to) the first turning point, where the packet width is
    ``sigma_at_arrival``; ``t_a_linear`` is the linear-front prediction:
    free flight to the barrier base plus p0/slope.  ``T_exact`` is the
    launch state's exact transmission, sum |phi(p)|^2 T(p) over p > 0 with
    T(p) the barrier's plane-wave transmission, and ``stop_bound`` the
    bound on the transmission still to come when the run stopped
    (``residual`` plus what has yet to reach the barrier; see
    :func:`_measure`): T is within it of its limit.
    """

    T: float
    R: float
    residual: float
    absorbed_left: float
    absorbed_right: float
    t_measure: float
    sigma_at_arrival: float
    t_a_measured: float
    t_a_linear: float
    trajectory: Trajectory
    T_exact: float
    stop_bound: float

    def norm_defect(self) -> float:
        """|T + R + residual - 1|; the accounting invariant."""
        return abs(self.T + self.R + self.residual - 1.0)


def _crossing_time(times, values, target):
    """First time ``values`` reaches ``target``, linearly interpolated; falls
    back to the (quadratically interpolated) time of closest approach when the
    mean value only touches the turning point."""
    v = np.asarray(values)
    above = v >= target
    if above.any():
        i = int(np.argmax(above))
        if i == 0:
            return float(times[0])
        t0, t1 = times[i - 1], times[i]
        v0, v1 = v[i - 1], v[i]
        return float(t0 + (target - v0) / (v1 - v0) * (t1 - t0))
    i = int(np.argmax(v))
    if 0 < i < len(v) - 1:
        # vertex of the parabola through the three samples around the max
        y0, y1, y2 = v[i - 1], v[i], v[i + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            shift = 0.5 * (y0 - y2) / denom
            return float(times[i] + shift * (times[i] - times[i - 1]))
    return float(times[i])


def _incoming(states, barrier, grid, units):
    """Per launch state: its exact transmission ``T_exact`` and the arrays
    ``(arrivals, to_come)`` that give the transmission still to come at time
    t as ``to_come[searchsorted(arrivals, t, "right")]``.

    phi = FFT[psi] and FFT[x psi] give each momentum's group-delay position
    x(p) = Re(conj phi FFT[x psi]) / |phi|^2, exact for a chirped (delayed)
    Gaussian; free flight carries p to the barrier's base at
    t_p = m (x_start - x(p)) / p.  ``to_come`` sums |phi(p)|^2 T(p) / sum
    |phi|^2 over the momenta with t_p > t: the momenta p > 0 that carry
    more than 1e-20 of the state's norm, the rest carrying less than 1e-16
    between them.  T(p) (:func:`_transmission`) is computed once for each
    distinct set of such momenta, so once for a delay scan, whose states
    share |phi|; a state's values are the ones it gets alone.
    """
    amps = np.array([psi.amps for psi in states])
    spectra = _fft(np.concatenate((amps, amps * grid.x)))
    phi, phi_x = spectra[: len(states)], spectra[len(states) :]
    weight = np.abs(phi) ** 2
    total = np.sum(weight, axis=1)
    p = units.hbar * grid.k_wrap
    carried = (p > 0.0) & (weight > 1e-20 * total[:, None])
    t_of_p = {}
    out = []
    for i, sel in enumerate(carried):
        key = sel.tobytes()
        if key not in t_of_p:
            t_of_p[key] = _transmission(barrier, p[sel], units)
        x_p = np.real(np.conj(phi[i, sel]) * phi_x[i, sel]) / weight[i, sel]
        arrivals = units.mass * (barrier.x_start - x_p) / p[sel]
        share = weight[i, sel] * t_of_p[key] / total[i]
        order = np.argsort(arrivals)
        # to_come[k]: the share of the momenta from the k-th arrival on
        to_come = np.append(np.cumsum(share[order][::-1])[::-1], 0.0)
        out.append((float(np.sum(share)), arrivals[order], to_come))
    return out


def _measure(packet, states, barrier, cfg, grid, units):
    """Check the preconditions of a barrier run, then launch every state of
    ``states`` at the barrier and step them as one ``(B, n)`` stack
    (``oracle._stride_loop``) until the transmission each has still to come
    is below ``STOP_BUDGET``.  ``packet`` gives the incident energy, hence
    the turning points, and the nominal launch point.

    After every stride each row gets its T, R and residual, and its bound on
    the transmission still to come: the residual, which at most all
    transmits, plus the share of its launch spectrum, weighted by T(p), that
    free flight has not yet carried to ``x_start`` (:func:`_incoming`).  A
    row whose bound is below ``STOP_BUDGET`` at or after ``t_a_linear``
    leaves the stack while the others step on; the bound depends only on the
    row's own launch state, so a row stops at the stride it would alone.
    Returns one :class:`TunnelingResult` per state, in input order, with its
    latest T, R and bound.  If ``cfg.n_steps`` runs out first, raises
    :class:`StationarityTimeout` carrying the partial result of the first
    state, in input order, still above the budget.
    """
    if cfg.absorber is None:
        raise PreconditionError("tunneling runs need an absorbing boundary")
    if packet.p0 <= 0:
        raise PreconditionError("packet needs positive incident momentum")
    energy = packet.p0**2 / (2.0 * units.mass)
    if energy <= barrier.peak_height:
        a, b = turning_points(barrier, energy)
    else:
        a, b = barrier.x_start, barrier.x_end
    _, left, right = cfg.absorber._edges(grid)
    if barrier.x_end >= right:
        raise PreconditionError("barrier extends into the absorbing band; widen the grid")
    v_in = packet.p0 / units.mass
    t_a_linear = max(barrier.x_start - packet.x0, 0.0) / v_in + packet.p0 / barrier.slope
    n_left, start = cfg.absorber._bands(grid)
    on_barrier = grid.n - int(np.searchsorted(grid.x, barrier.x_start))
    for psi in states:
        psi.require_normalized()
        if psi.grid != grid:
            raise ValueError("tunneling runs need a state on the run's grid")
        share = _edge_share(psi.amps, n_left, grid.n - start)
        if share > _EDGE_THRESHOLD:
            raise PreconditionError(
                f"launch state has {share:.2e} of its norm in the absorbing bands "
                f"(x < {left!r} or x > {right!r}); launch it further in, or widen the grid"
            )
        share = _edge_share(psi.amps, 0, on_barrier)
        if share > _EDGE_THRESHOLD:
            raise PreconditionError(
                f"launch state has {share:.2e} of its norm at or beyond the barrier's "
                f"start x_start = {barrier.x_start!r}; launch it further left"
            )
    dx = grid.dx
    # R is x < a, the residual a <= x <= b and T x > b
    cut_a = int(np.searchsorted(grid.x, a))
    cut_b = int(np.searchsorted(grid.x, b, "right"))
    incoming = _incoming(states, barrier, grid, units)
    # per state: its latest (T, R, residual, bound)
    latest = [None] * len(states)

    def keep_stepping(i, row, step, t, norm2, absorbed):
        left, right = absorbed
        rho = np.abs(row) ** 2
        T = float(np.sum(rho[cut_b:]) * dx) + right
        R = float(np.sum(rho[:cut_a]) * dx) + left
        residual = float(np.sum(rho[cut_a:cut_b]) * dx)
        _, arrivals, to_come = incoming[i]
        bound = residual + float(to_come[np.searchsorted(arrivals, t, "right")])
        latest[i] = (T, R, residual, bound)
        return not (t >= t_a_linear and bound < STOP_BUDGET)

    trajectories, over_budget = _stride_loop(
        states, barrier.potential(), cfg, units, keep_stepping
    )
    results = []
    for i, traj in enumerate(trajectories):
        T, R, residual, bound = latest[i]
        t_a_measured = _crossing_time(traj.times, traj.mean_x, a)
        results.append(
            TunnelingResult(
                T=T,
                R=R,
                residual=residual,
                absorbed_left=traj.absorbed_left[-1],
                absorbed_right=traj.absorbed_right[-1],
                t_measure=traj.state_steps * cfg.dt,
                sigma_at_arrival=float(np.interp(t_a_measured, traj.times, traj.width)),
                t_a_measured=t_a_measured,
                t_a_linear=t_a_linear,
                trajectory=traj,
                T_exact=incoming[i][0],
                stop_bound=bound,
            )
        )
    if over_budget:
        first = results[over_budget[0]]
        raise StationarityTimeout(
            f"transmission still to come above {STOP_BUDGET:g} after "
            f"{first.trajectory.state_steps} steps",
            first,
        )
    return results


def run_tunneling(
    packet: GaussianSpec,
    barrier: BarrierSpec,
    cfg: SolverConfig,
    grid: SpatialGrid,
    units: UnitSystem = NATURAL,
    initial_state: WaveFunction | None = None,
) -> TunnelingResult:
    """Launch a packet at a barrier and measure where its probability ends up.

    Requires an absorber (transmitted and reflected flux must not wrap), a
    grid that holds the packet and the barrier clear of the absorbing bands,
    and a launch state clear of the barrier (x < ``barrier.x_start``).
    The run stops at the first snapshot at or after the predicted arrival
    ``t_a_linear`` at which the transmission still to come is bounded by
    ``STOP_BUDGET`` = 1e-6: the probability still between the turning points
    plus the share of the launch spectrum, weighted by the barrier's exact
    T(p), that free flight has not yet brought to ``x_start``
    (:func:`_measure`).  T is then within 1e-6 of its limit; the result
    carries the bound as ``stop_bound`` and the limit the spectrum predicts
    as ``T_exact``.  Exhausting ``cfg.n_steps`` first raises
    :class:`StationarityTimeout` with the partial result attached.

    ``initial_state`` overrides the sampled packet, for instance with a
    pre-spread state; ``packet`` still defines the incident energy and the
    nominal launch point.  The trajectory runs on the launch clock: its
    ``times`` and its final state's ``time`` count from the launch at t = 0,
    whatever time ``initial_state`` carries.
    """
    psi0 = initial_state if initial_state is not None else sample_gaussian(packet, grid, units)
    return _measure(packet, [psi0], barrier, cfg, grid, units)[0]


class ScanResult(NamedTuple):
    """Width-scan table: one :class:`TunnelingResult` per entry, sorted by
    sigma at arrival, and the state-steps and FFT kernel calls of the scan's
    one stack, read off the rows' trajectories (the one transform of the
    launch spectra is not among them)."""

    rows: tuple

    @property
    def state_steps(self) -> int:
        return sum(r.trajectory.state_steps for r in self.rows)

    @property
    def transforms(self) -> int:
        return max(r.trajectory.transforms for r in self.rows)

    def monotonicity_violations(self, slack: float = SCAN_SLACK):
        """Adjacent pairs where T decreases by more than ``slack`` as sigma
        grows.  Reported, never suppressed.

        The default, ``SCAN_SLACK`` = 1e-5, is the floor of a measured T:
        each row stops once the transmission it has still to come is below
        ``STOP_BUDGET`` = SCAN_SLACK / 10, so two rows that tend to the same
        T stop less than 2e-6 apart, and the floor leaves five times that
        for what the bound does not hold, such as the little the absorber
        reflects back.  A decrease below the floor is measurement noise, not
        a violation; ``slack=0.0`` returns every raw decrease.
        """
        out = []
        for r0, r1 in zip(self.rows, self.rows[1:]):
            if r1.T < r0.T - slack:
                out.append((r0, r1))
        return out


def width_scan(
    p0: float,
    barrier: BarrierSpec,
    grid: SpatialGrid,
    cfg: SolverConfig,
    base_packet: GaussianSpec | None = None,
    sigma_list=None,
    delay_list=None,
    units: UnitSystem = NATURAL,
) -> ScanResult:
    """Transmission versus packet width at fixed mean momentum p0.

    Exactly one of ``sigma_list`` (fresh packets of different widths) or
    ``delay_list`` (one packet free-evolved for each delay before launch, so
    its width at arrival has grown by the spreading law while its momentum
    distribution is untouched) must be given, and not empty.  A
    ``base_packet`` must have momentum ``p0`` (else ValueError).  The delay
    pre-evolution is performed in place: the drifted profile is translated
    back to the launch point, the same state a longer free approach delivers.
    The entries step together as one stack, each measured exactly as a
    :func:`run_tunneling` of it alone would be; the table is the results in
    input order, stably sorted by measured sigma at arrival.  Each entry
    leaves the stack once its own stop bound is below ``STOP_BUDGET`` (see
    :func:`run_tunneling`); the launch spectra are transformed and the
    barrier's T(p) computed once, for all entries.  If any entry exhausts
    ``cfg.n_steps``, :class:`StationarityTimeout` carries the partial result
    of the first such entry in input order.
    """
    given = [arg for arg in (sigma_list, delay_list) if arg is not None]
    entries = tuple(given[0]) if len(given) == 1 else ()
    if not entries:
        raise ValueError("give exactly one non-empty sigma_list or delay_list")
    if delay_list is not None:
        for delay in entries:
            _finite(delay=float(delay))
    base = base_packet or GaussianSpec(x0=0.0, p0=p0, sigma=1.0)
    if base.p0 != p0:
        raise ValueError(f"base_packet momentum {base.p0!r} is not p0 {p0!r}")

    def state(arg):
        if sigma_list is not None:
            return sample_gaussian(GaussianSpec(base.x0, p0, float(arg)), grid, units)
        psi = sample_gaussian(base, grid, units)
        if arg:
            drift = base.p0 * float(arg) / units.mass
            psi = spectral_shift(free_evolve(psi, float(arg), units), drift)
        return psi

    states = [state(a) for a in entries]
    results = _measure(base, states, barrier, cfg, grid, units)
    return ScanResult(tuple(sorted(results, key=lambda r: r.sigma_at_arrival)))


# ---------------------------------------------------------------------------
# The slow-packet animation scenario (SI scale) and its desk-scale surrogate
# ---------------------------------------------------------------------------


class AnimationScenario(NamedTuple):
    """SI parameters of the slow-packet deceleration scenario.

    A packet with sigma = 2 mm and speed 1 m/s climbs a linear ramp that
    stops it after 0.3 m.  The particle mass is back-solved from the stated
    10% width growth at the turning point:

        t_a = 2 * stop_distance / speed        (ramp starts at the launch point)
        hbar * t_a / (m sigma^2) = sqrt(1.1^2 - 1)   =>   m ~ 3.45e-29 kg
    """

    sigma: float
    mass: float
    p0: float
    v0: float
    t_a: float

    @property
    def predicted_width_ratio(self) -> float:
        u = HBAR_SI * self.t_a / (self.mass * self.sigma**2)
        return math.sqrt(1.0 + u * u)


def animation_scenario() -> AnimationScenario:
    """Back-solve the mass and ramp strength of the SI animation scenario:
    sigma = 2 mm, speed 1 m/s, stop distance 0.3 m and 10% width growth."""
    sigma, speed, stop_distance, growth = 0.002, 1.0, 0.3, 1.10
    t_a = 2.0 * stop_distance / speed
    theta = math.sqrt(growth**2 - 1.0)
    mass = HBAR_SI * t_a / (sigma**2 * theta)
    p0 = mass * speed
    v0 = p0 / t_a
    return AnimationScenario(sigma=sigma, mass=mass, p0=p0, v0=v0, t_a=t_a)


class SurrogateResult(NamedTuple):
    """Desk-scale measurement of the slow-packet scenario's crossing time.

    The scenario is scale-free apart from two dimensionless numbers: the
    width-growth parameter theta = hbar t_a/(m sigma^2), preserved exactly,
    and the semiclassicality N = p0 sigma / hbar, reduced from ~655 so the
    grid stays affordable.  With the packet launched on the linear front, the
    residual scale-breaking terms (tail overlap with the front's base and
    with the peak region) are exponentially small at both values of N, so the
    dimensionless measurement transfers.  Times map back to SI through
    t_SI = t' * (t_a_SI / t_a').
    """

    t_a_dimensionless: float
    t_a_measured_dimensionless: float
    t_a_si: float
    t_a_measured_si: float
    width_ratio_measured: float

    @property
    def crossing_time_relative_error(self) -> float:
        return abs(self.t_a_measured_dimensionless / self.t_a_dimensionless - 1.0)


def animation_surrogate(semiclassical_ratio: float = 160.0, n: int = 8192) -> SurrogateResult:
    """Measure the turning-point crossing time of the animation scenario on a
    desk-scale grid (natural units, sigma = 1, dt about 1e-4).

    The packet launches already *on* the barrier's linear front (the front
    extends 12 sigma behind the launch point): the stated width growth follows
    the free-spreading law, which holds only while the whole packet feels one
    linear slope.  A front starting at the packet's center would chirp the
    packet (its leading half decelerates first) and compress it instead --
    measurably so, since the chirp-to-momentum-spread ratio is 1/theta,
    independent of scale.
    """
    sc = animation_scenario()
    theta = HBAR_SI * sc.t_a / (sc.mass * sc.sigma**2)
    p0 = semiclassical_ratio
    t_a = theta
    slope = p0 / t_a
    stop = 0.5 * p0 * t_a  # launch-to-turning-point distance

    grid = SpatialGrid(-0.35 * stop, 1.45 * stop, n)
    front_base = -12.0  # 12 sigma behind the launch point
    x_peak = 1.4 * stop  # linear front ends 0.4*stop beyond the turning point
    peak = slope * (x_peak - front_base)
    ramp = PiecewiseLinear(
        (
            (front_base, 0.0),
            (x_peak, peak),
            (x_peak + 0.4 * stop, peak - slope * 0.4 * stop),
        )
    )
    psi = sample_gaussian(GaussianSpec(x0=0.0, p0=p0, sigma=1.0), grid)

    n_steps = int(round(1.5 * t_a / 1e-4))
    cfg = SolverConfig(
        dt=1.5 * t_a / n_steps,
        n_steps=n_steps,
        record_every=max(1, n_steps // 300),
    )
    traj = split_step_evolve(psi, ramp, cfg)
    t_meas = _crossing_time(traj.times, traj.mean_x, stop)
    width_at = float(np.interp(t_meas, traj.times, traj.width))
    scale = sc.t_a / t_a
    return SurrogateResult(
        t_a_dimensionless=t_a,
        t_a_measured_dimensionless=t_meas,
        t_a_si=sc.t_a,
        t_a_measured_si=t_meas * scale,
        width_ratio_measured=width_at,
    )

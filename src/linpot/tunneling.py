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
the run ends when both are stationary.  The semiclassical reference

    T(E) = exp(-2 sigma_R) / (1 + exp(-2 sigma_R)/4)^2,
    sigma_R = integral_a^b sqrt(2 m (V(x) - E)) / hbar dx

is provided for comparison, with sigma_R the exact action of the same knot
polyline, summed in closed form segment by segment; the width dependence of
the measured T has no closed form here and the width scan reports what it
finds, including any decrease of T beyond the scan's measurement floor
``SCAN_SLACK``.

Every measurement goes through one propagator (``oracle._Propagator``) built
once for the run and the solver's one stride loop (``oracle._stride_loop``),
which records each row's trajectory and stops at exactly ``cfg.n_steps``.
:func:`run_tunneling` steps a stack of one state; the width scan, whose
entries share p0, launch point, barrier, grid, dt and absorber, steps all of
them as one ``(B, n)`` stack.  This module adds only what a barrier run
measures: after every stride each row's T, R and residual and its
stationarity test; a row that has become stationary leaves the stack while
the others step on.  Rows are stepped, summed and tested exactly as they
would be alone, so a scan row is the result of a run of that entry to the
last bit.  A run's trajectory times count from launch; for a state at time 0
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
from dataclasses import dataclass
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
    Potential,
    Sampled,
    SpatialGrid,
    UnitSystem,
    WaveFunction,
    _edge_share,
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
    _Propagator,
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

STATIONARY_TOL = 1e-8
STATIONARY_SNAPSHOTS = 10
# measurement floor of a width scan's T (see ScanResult.monotonicity_violations)
SCAN_SLACK = 1e-5


@dataclass(frozen=True)
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
        if not np.isfinite(self.x_start):
            raise ValueError("x_start must be finite")
        if not 0.0 < self.slope < np.inf:
            raise ValueError("slope must be positive and finite")
        if not 0.0 < self.peak_height < np.inf:
            raise ValueError("peak_height must be positive and finite")
        if self.descent_slope is not None and not 0.0 < self.descent_slope < np.inf:
            raise ValueError("descent_slope must be positive and finite")

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
    """(xs, vs): the knots of the polyline the solver steps for a barrier
    (``np.interp`` through them), for every potential with two flanks."""
    if isinstance(v, BarrierSpec):
        v = v.potential()
    if isinstance(v, PiecewiseLinear):
        return v.xs, v.vs
    if isinstance(v, Sampled):
        return v.grid.x, np.asarray(v.values, dtype=float)
    raise TypeError(
        "turning_points needs a Linear, PiecewiseLinear or Sampled "
        f"potential (or a BarrierSpec), got {type(v).__name__}"
    )


def _crossing(xs, vs, at, out, energy):
    """Where the segment from knot ``out`` (below E) to knot ``at`` (at or
    above E) crosses E; knot ``at`` itself when it sits exactly at E."""
    if vs[at] == energy:
        return float(xs[at])
    return float(xs[out] + (energy - vs[out]) * (xs[at] - xs[out]) / (vs[at] - vs[out]))


def turning_points(v, energy: float):
    """Classical turning points (a, b) with V(a) = V(b) = E.

    Every barrier is the polyline through its knots (:func:`_knots`), which
    is what the solver steps, so each turning point is that polyline's exact
    root: a on the segment into the first knot at or above E before the
    peak, b on the segment out of the last such knot after it.  A pure
    Linear ramp never comes back down, so its forbidden side is unbounded:
    (a, +inf) for a rising ramp, (-inf, a) for a falling one, and a flat
    one has no turning points.  Energy exactly at the peak degenerates to
    a = b.  Raises :class:`NoTurningPointsError` above the peak (and above
    a flat ramp) and :class:`DegenerateEnergyError` at or below the base
    line (the higher of the two ends; a ramp's offset).
    """
    if isinstance(v, Linear):
        if energy <= v.offset:
            raise DegenerateEnergyError(f"energy {energy!r} at or below the ramp base")
        if v.v0 == 0.0:
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


def wkb_sigma_R(v: Potential, energy: float, units: UnitSystem = NATURAL) -> float:
    """Dimensionless action integral sigma_R = int_a^b sqrt(2m(V-E))/hbar dx.

    Exact for the polyline through the barrier's knots (:func:`_knots`),
    summed segment by segment between the turning points.  On a segment of
    width dx where h = V - E runs linearly from h1 to h2, the integral of
    sqrt(h) is (2/3) dx (h1 + sqrt(h1 h2) + h2) / (sqrt(h1) + sqrt(h2)) when
    both ends are at or above E (no cancellation on a flat segment), and
    (2/3) dx h+^(3/2) / |h2 - h1| when h changes sign, h+ being the end
    above E; a stretch at or below E between a and b (a flat valley too)
    adds nothing.  Returns +inf when a turning point is infinite (a ramp
    with no far side) and exactly 0 when the energy sits at the peak.
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
    if math.isinf(sigma_r):
        return 0.0
    damp = math.exp(-2.0 * sigma_r)
    return damp / (1.0 + damp / 4.0) ** 2


def wkb_transmission(v: Potential, energy: float, units: UnitSystem = NATURAL) -> float:
    """Semiclassical transmission of the barrier at the given energy."""
    return wkb_transmission_from_action(wkb_sigma_R(v, energy, units))


class TunnelingResult(NamedTuple):
    """Measured outcome of one barrier run.

    T and R include the probability removed by the right/left absorbing band;
    ``residual`` is what remains between the measurement boundaries at
    ``t_measure``, so T + R + residual equals the initial norm up to solver
    roundoff.  ``t_a_measured`` is the time the mean position reaches (or
    comes closest to) the first turning point, where the packet width is
    ``sigma_at_arrival``; ``t_a_linear`` is the linear-front prediction:
    free flight to the barrier base plus p0/slope.
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


def _launch(packet, barrier, cfg, grid, units):
    """Check the preconditions of a barrier run and return the turning points
    (a, b) and the linear-front arrival time."""
    if cfg.absorber is None or cfg.absorber.strength <= 0:
        raise PreconditionError("tunneling runs need an absorbing boundary")
    if packet.p0 <= 0:
        raise PreconditionError("packet needs positive incident momentum")
    energy = packet.p0**2 / (2.0 * units.mass)

    if energy <= barrier.peak_height:
        a, b = turning_points(barrier, energy)
    else:
        a, b = barrier.x_start, barrier.x_end
    if barrier.x_end >= cfg.absorber._edges(grid)[2]:
        raise PreconditionError(
            "barrier extends into the absorbing band; widen the grid"
        )
    v_in = packet.p0 / units.mass
    t_a_linear = max(barrier.x_start - packet.x0, 0.0) / v_in + packet.p0 / barrier.slope
    return a, b, t_a_linear


def _stationary(history) -> bool:
    """T and R moved by less than STATIONARY_TOL at each of the last
    STATIONARY_SNAPSHOTS snapshots."""
    if len(history) <= STATIONARY_SNAPSHOTS:
        return False
    recent = history[-(STATIONARY_SNAPSHOTS + 1):]
    drift = max(
        abs(t1 - t0) + abs(r1 - r0) for (t0, r0), (t1, r1) in zip(recent, recent[1:])
    )
    return drift < STATIONARY_TOL


def _measure(states, barrier, cfg, grid, units, launch):
    """Launch every state of ``states`` at the barrier and step them as one
    ``(B, n)`` stack (``oracle._stride_loop``) until each is stationary.

    After every stride each row gets its T, R and residual and its
    stationarity test; a row that has become stationary leaves the stack and
    the others keep stepping.  Returns one :class:`TunnelingResult` per
    state, in input order.  If ``cfg.n_steps`` runs out first, raises
    :class:`StationarityTimeout` carrying the partial result of the first
    state, in input order, that was still drifting.
    """
    a, b, t_a_linear = launch
    for psi in states:
        psi.require_normalized()
        if psi.grid != grid:
            raise ValueError("tunneling runs need a state on the run's grid")
    prop = _Propagator(grid, barrier.potential(), cfg.dt, cfg.absorber, units)
    n_left, _, start, _ = prop.bands
    on_barrier = grid.n - int(np.searchsorted(grid.x, barrier.x_start))
    for psi in states:
        share = _edge_share(psi.amps, n_left, grid.n - start)
        if share > _EDGE_THRESHOLD:
            _, left, right = cfg.absorber._edges(grid)
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

    # per state: the (T, R) history of its snapshots and the latest residual
    history = [[] for _ in states]
    residuals = [None] * len(states)

    def keep_stepping(i, row, step, t, norm2, absorbed):
        left, right = absorbed
        rho = np.abs(row) ** 2
        T = float(np.sum(rho[cut_b:]) * dx) + right
        R = float(np.sum(rho[:cut_a]) * dx) + left
        residuals[i] = float(np.sum(rho[cut_a:cut_b]) * dx)
        history[i].append((T, R))
        return not (t >= t_a_linear and _stationary(history[i]))

    trajectories, drifting = _stride_loop(prop, states, cfg, units, keep_stepping)
    results = []
    for i, traj in enumerate(trajectories):
        T, R = history[i][-1]
        t_a_measured = _crossing_time(traj.times, traj.mean_x, a)
        results.append(
            TunnelingResult(
                T=T,
                R=R,
                residual=residuals[i],
                absorbed_left=traj.absorbed_left[-1],
                absorbed_right=traj.absorbed_right[-1],
                t_measure=traj.state_steps * cfg.dt,
                sigma_at_arrival=float(np.interp(t_a_measured, traj.times, traj.width)),
                t_a_measured=t_a_measured,
                t_a_linear=t_a_linear,
                trajectory=traj,
            )
        )
    if drifting:
        first = results[drifting[0]]
        raise StationarityTimeout(
            f"T and R still drifting after {first.trajectory.state_steps} steps", first
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
    The run stops once T and R change by less than 1e-8 per snapshot over 10
    consecutive snapshots, tested only after the predicted arrival time so the
    quiet approach phase cannot satisfy it.  Exhausting ``cfg.n_steps`` first
    raises :class:`StationarityTimeout` with the partial result attached.

    ``initial_state`` overrides the sampled packet, for instance with a
    pre-spread state; ``packet`` still defines the incident energy and the
    nominal launch point.  The trajectory runs on the launch clock: its
    ``times`` and its final state's ``time`` count from the launch at t = 0,
    whatever time ``initial_state`` carries.
    """
    launch = _launch(packet, barrier, cfg, grid, units)
    psi0 = (
        initial_state
        if initial_state is not None
        else sample_gaussian(packet, grid, units)
    )
    return _measure([psi0], barrier, cfg, grid, units, launch)[0]


class ScanResult(NamedTuple):
    """Width-scan table: one :class:`TunnelingResult` per entry, sorted by
    sigma at arrival, and the state-steps and FFT kernel calls of the scan's
    one stack, read off the rows' trajectories."""

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

        The default, ``SCAN_SLACK`` = 1e-5, is the reproducibility floor of
        a measured T: each row stops once T and R move by less than
        ``STATIONARY_TOL`` per snapshot, and the absorber reflects a little,
        so T is not known better than that between runs of the same scan.
        A decrease below the floor is measurement noise, not a violation;
        ``slack=0.0`` returns every raw decrease.
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
    distribution is untouched) must be given, and not empty.  The delay
    pre-evolution is performed in place: the drifted profile is translated
    back to the launch point, the same state a longer free approach delivers.
    The entries step together as one stack, each measured exactly as a
    :func:`run_tunneling` of it alone would be; the table is the results in
    input order, stably sorted by measured sigma at arrival.  If any
    entry exhausts ``cfg.n_steps``, :class:`StationarityTimeout` carries the
    partial result of the first such entry in input order.
    """
    given = [arg for arg in (sigma_list, delay_list) if arg is not None]
    entries = tuple(given[0]) if len(given) == 1 else ()
    if not entries:
        raise ValueError("give exactly one non-empty sigma_list or delay_list")
    base = base_packet or GaussianSpec(x0=0.0, p0=p0, sigma=1.0)
    if base.p0 != p0:
        base = GaussianSpec(base.x0, p0, base.sigma)
    launch = _launch(base, barrier, cfg, grid, units)

    def state(arg):
        if sigma_list is not None:
            return sample_gaussian(GaussianSpec(base.x0, p0, float(arg)), grid, units)
        psi = sample_gaussian(base, grid, units)
        if arg:
            drift = base.p0 * float(arg) / units.mass
            psi = spectral_shift(free_evolve(psi, float(arg), units), drift)
        return psi

    states = [state(a) for a in entries]
    results = _measure(states, barrier, cfg, grid, units, launch)
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
    speed: float
    stop_distance: float
    growth: float
    mass: float
    p0: float
    v0: float
    t_a: float

    @property
    def predicted_width_ratio(self) -> float:
        u = HBAR_SI * self.t_a / (self.mass * self.sigma**2)
        return math.sqrt(1.0 + u * u)


def animation_scenario(
    sigma: float = 0.002,
    speed: float = 1.0,
    stop_distance: float = 0.3,
    growth: float = 1.10,
) -> AnimationScenario:
    """Back-solve the mass and ramp strength of the SI animation scenario."""
    t_a = 2.0 * stop_distance / speed
    theta = math.sqrt(growth**2 - 1.0)
    mass = HBAR_SI * t_a / (sigma**2 * theta)
    p0 = mass * speed
    v0 = p0 / t_a
    return AnimationScenario(
        sigma=sigma,
        speed=speed,
        stop_distance=stop_distance,
        growth=growth,
        mass=mass,
        p0=p0,
        v0=v0,
        t_a=t_a,
    )


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


def animation_surrogate(
    scenario: AnimationScenario | None = None,
    semiclassical_ratio: float = 160.0,
    n: int = 8192,
    dt: float = 1e-4,
) -> SurrogateResult:
    """Measure the turning-point crossing time of the animation scenario on a
    desk-scale grid (natural units, sigma = 1).

    The packet launches already *on* the barrier's linear front (the front
    extends 12 sigma behind the launch point): the stated width growth follows
    the free-spreading law, which holds only while the whole packet feels one
    linear slope.  A front starting at the packet's center would chirp the
    packet (its leading half decelerates first) and compress it instead --
    measurably so, since the chirp-to-momentum-spread ratio is 1/theta,
    independent of scale.
    """
    sc = scenario or animation_scenario()
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

    n_steps = int(round(1.5 * t_a / dt))
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

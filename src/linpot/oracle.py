"""Independent split-step Fourier solver for the time-dependent Schrodinger
equation with a linear ramp or a knot polyline as the potential.

One step applies the second-order symmetric (Strang) splitting

    psi -> exp(-i V dt / 2 hbar) . IFFT[ exp(-i hbar k^2 dt / 2m) . FFT[ psi ] ]
           . exp(-i V dt / 2 hbar)

whose global error is O(dt^2).  Each factor is exactly unitary, so without an
absorber the norm is conserved to roundoff; the measured convergence order is
itself a test asset: one dt ladder measures it for :func:`convergence_study`
and, against the closed form, for ``linpot verify``'s c01.

Absorbing boundaries are a smooth amplitude mask applied once per step:
``exp(-strength * ramp(x) * dt / hbar)`` with a cos^2 ramp rising from the
inner edge of each absorbing band, x_min + w on the left and x_max - w on the
right (w = width_fraction * span), to the grid boundary.  Those two edges
define the bands for the mask and for the absorbed-probability ledger alike.
They are off by default and required for tunneling runs so transmitted flux
does not wrap around.  Probability removed by the mask is tracked per grid
side, so norm accounting stays exact.  Snapshot observables come from
``core._moments``, the routine behind the public observables.  The solver
keeps no snapshot states: a caller that needs them passes ``on_snapshot``
and receives each one as it is taken, so ``linpot evolve`` holds one state
at a time however many snapshots it writes.

One private propagator holds the phase factors of a (grid, potential, dt,
absorber) as ``(B, n)`` tables, its kinetic table the one ``core._kinetic``
builds for the closed form too, and steps a stack of up to B states in place
with ``core._fft``/``_ifft`` along the last axis.  These call the kernel that
``scipy.fft`` itself calls, with the same arguments, so the output is
bit-identical to ``scipy.fft.fft/ifft(overwrite_x=True)``.  The propagator
counts the kernel calls of a run: its own two per step, the one
``_moments`` makes per row and snapshot, and the kick guard's of
:func:`split_step_evolve`.  Every :class:`Trajectory` carries that count as
``transforms``, beside its ``state_steps``.

One private stride loop builds the propagator for its stack, drives it for
every run, stops it at exactly ``n_steps`` and owns the snapshot record, the
non-finite check and the absorbed sums.  :func:`split_step_evolve` is a stack
of one; the tunneling measurement stacks all its entries.  Each adds only a
per-row callback that says whether the row steps on, so a tunneling row and
:func:`split_step_evolve` of the same state agree to the last bit.  Between
two snapshots nobody looks at the state, so the closing half kick of one step
and the opening half kick of the next are merged into one full kick.  k steps
apply the half kick once, then k times the kinetic factor followed by
``half**2 * mask``, except that the last of them is followed by
``half * mask``.  This is the same product of operators, not an approximation:
the potential phase and the mask are both diagonal in position, so they
commute, and only roundoff differs from the per-step form.  The phase has
modulus 1, so the density on the absorbing bands just before a merged kick
equals the density the per-step scheme masks.  That density is summed there
per point: each step squares all rows of a side, the two contiguous edge
slices of the bands, with one ``np.multiply`` and adds the squares to
per-point sums in place.  At the end of a :meth:`_Propagator.advance` call,
one dot product per row and side with the removal weights adds the call's
removed probability to the ledger.  Only the order of that summation differs
from the per-step scheme's; against the exactly rounded sum it stays within
1e-13 relative over 2500 steps.  Every operation is elementwise per row or one
dot product per row, so a row of a stack sums exactly as it would alone.  The
phase tables are tiled to the stack's shape once, when the propagator is
built; a stack that has shrunk multiplies by views of their first rows.
Nothing is allocated inside the step loop.
"""

from __future__ import annotations

from numbers import Integral
from typing import NamedTuple

import numpy as np

from .core import (
    _EDGE_THRESHOLD,
    NATURAL,
    Linear,
    PiecewiseLinear,
    SpatialGrid,
    UnitSystem,
    WaveFunction,
    _band_share,
    _check_kick,
    _fft,
    _ifft,
    _input,
    _kinetic,
    _moments,
    _positive,
    l2_distance,
)
from .errors import BoundaryContaminationWarning, StabilityError, _warn

__all__ = [
    "Absorber",
    "SolverConfig",
    "Trajectory",
    "split_step_evolve",
    "convergence_study",
    "ConvergenceStudy",
]


@_input
class Absorber:
    """Complex absorbing mask at both grid edges.

    width_fraction is the fraction of the grid span covered by each band
    (at most 0.25); strength is the peak damping rate in energy units, and
    positive: a run with no absorber passes ``None``.
    Strong masks reflect: the defaults are tuned so a packet at the slowest
    momentum used in the test suite (p = 4 into a 0.2-fraction band) reflects
    below 1e-11 in probability, against the 1e-8 requirement.
    """

    width_fraction: float = 0.15
    strength: float = 5.0

    def __post_init__(self):
        if not (0.0 < self.width_fraction <= 0.25):
            raise ValueError("width_fraction must be in (0, 0.25]")
        _positive(strength=self.strength)

    def _edges(self, grid: SpatialGrid):
        """(w, x_min + w, x_max - w): each band's width and the inner edges
        of the left and right bands.  A band is the grid points strictly
        beyond its inner edge."""
        w = self.width_fraction * grid.span
        return w, grid.x_min + w, grid.x_max - w

    def _bands(self, grid: SpatialGrid):
        """(n_left, start): the left band's point count, the right band's first point."""
        _, left, right = self._edges(grid)
        return int(np.searchsorted(grid.x, left)), int(np.searchsorted(grid.x, right, "right"))

    def ramp(self, grid: SpatialGrid) -> np.ndarray:
        """Damping-rate profile: 0 in the interior, cos^2-shaped rise to
        ``strength`` at each boundary."""
        w, left, right = self._edges(grid)
        x = grid.x
        out = np.zeros(grid.n)
        n_left, start = self._bands(grid)
        s_left = (left - x[:n_left]) / w
        s_right = (x[start:] - right) / w
        out[:n_left] = self.strength * np.sin(0.5 * np.pi * s_left) ** 2
        out[start:] = self.strength * np.sin(0.5 * np.pi * s_right) ** 2
        return out


@_input
class SolverConfig:
    """Step size, step budget, optional absorber, and snapshot stride."""

    dt: float
    n_steps: int
    absorber: Absorber | None = None
    record_every: int = 100

    def __post_init__(self):
        _positive(dt=self.dt)
        for name in ("n_steps", "record_every"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral) or value < 1:
                raise ValueError(f"{name} must be a whole number of at least 1, got {value!r}")


class Trajectory(NamedTuple):
    """Snapshot record of one evolution.

    Stores reduced observables per snapshot (<x>, <p>, sigma-width, norm^2,
    cumulative absorbed probability per side) and the final state; a caller
    that needs the snapshot states themselves receives them one at a time
    through ``split_step_evolve``'s ``on_snapshot``.  Observables are
    expectation values of the current (renormalized) state; ``norm2`` tracks
    the surviving probability.  ``state_steps`` counts the steps taken and
    ``transforms`` the FFT kernel calls the run made up to this state's last
    snapshot: the steps', the snapshots' and the kick guard's.

    For an absorber-free :func:`split_step_evolve` run, ``max_norm_drift``
    is the largest |norm^2 - initial norm^2| over the snapshots after the
    first, and ``boundary_time`` the time of the first snapshot whose
    outer edge band held more than ``core._EDGE_THRESHOLD`` of the norm
    (``None`` if none did).  Both are ``None`` for any other run.

    Like every record linpot returns, a trajectory is not mutated after it
    is built: ``split_step_evolve`` returns a ``_replace`` copy carrying
    the drift and boundary time.
    """

    times: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    width: np.ndarray
    norm2: np.ndarray
    absorbed_left: np.ndarray
    absorbed_right: np.ndarray
    final_state: WaveFunction
    state_steps: int = 0
    transforms: int = 0
    max_norm_drift: float | None = None
    boundary_time: float | None = None


class _Propagator:
    """Strang stepping for one grid, potential, dt and absorber.

    Builds the phase factors, as ``(rows, n)`` tables, and the absorber's band
    weights once; :meth:`advance` then steps a stack of up to ``rows`` states.
    ``transforms`` counts the FFT kernel calls of the run: :meth:`advance`
    adds its own, and the stride loop those of its snapshots.
    """

    def __init__(self, grid, potential, dt, absorber, units, rows):
        hbar = units.hbar
        v = np.asarray(potential.evaluate(grid.x), dtype=float)
        if not np.all(np.isfinite(v)):
            raise StabilityError("potential evaluates to non-finite values on the grid")
        half = np.exp(-0.5j * v * dt / hbar)
        full, last = half * half, half
        self.absorbing = absorber is not None
        self.transforms = 0
        if self.absorbing:
            mask = np.exp(-absorber.ramp(grid) * dt / hbar)
            full, last = full * mask, half * mask
            # removal weights over each band, repeated for the (re, im) pairs
            # of a float view of the amplitudes: weights . view**2 = sum |psi|^2 w
            removal = (1.0 - mask**2) * grid.dx
            n_left, start = absorber._bands(grid)
            # (points, weights) of the left band, (first point, weights) of
            # the right one
            w_left, w_right = np.repeat(removal[:n_left], 2), np.repeat(removal[start:], 2)
            self.bands = (n_left, w_left, start, w_right)
        tables = (half, full, last, _kinetic(grid, dt, units))
        self.half, self.full, self.last, self.exp_k = (np.tile(t, (rows, 1)) for t in tables)

    def advance(self, amps, k, ledger):
        """Step ``amps``, a ``(B, n)`` stack of C-contiguous complex rows, B at
        most ``rows``, ``k`` steps in place and return it.  With the absorber
        on, the probability each row's bands remove is added to ``ledger``,
        shape ``(B, 2)``: (left, right) per row.  It is summed per band point
        over the steps and weighted once, at the end of the call."""
        tables = (self.half, self.full, self.last, self.exp_k)
        half, full, last, exp_k = (t[: len(amps)] for t in tables)
        absorbing = self.absorbing
        if absorbing:
            n_left, w_left, start, w_right = self.bands
            # float views of every row's bands: the transforms run in place,
            # so the views see each step's state
            u_left = amps[:, :n_left].view(float)
            u_right = amps[:, start:].view(float)
            sq_left, sq_right = np.empty_like(u_left), np.empty_like(u_right)
            sum_left, sum_right = np.zeros_like(u_left), np.zeros_like(u_right)
        amps *= half
        for j in range(k):
            _fft(amps, amps)
            amps *= exp_k
            _ifft(amps, amps)
            if absorbing:
                # |half| = 1, so |psi|^2 here equals the density after the
                # closing half kick, where the per-step scheme applies the
                # mask
                np.multiply(u_left, u_left, out=sq_left)
                sum_left += sq_left
                np.multiply(u_right, u_right, out=sq_right)
                sum_right += sq_right
            amps *= last if j == k - 1 else full
        if absorbing:
            for a, s_l, s_r in zip(ledger, sum_left, sum_right):
                a[0] += np.dot(s_l, w_left)
                a[1] += np.dot(s_r, w_right)
        self.transforms += 2 * k
        return amps


def _stride_loop(states, potential, cfg, units, keep_stepping, t0=0.0):
    """Step ``states`` as one ``(B, n)`` stack through a propagator built here
    for it; return one :class:`Trajectory` per state, in input order, and the
    indices of the rows still stepping when ``cfg.n_steps`` ran out.

    Each stride is ``min(cfg.record_every, steps left)`` steps.  After it
    every row in the stack gets a snapshot ``(t, norm^2, <x>, <p>, width,
    absorbed left, absorbed right)`` with ``t = t0 + step * dt`` and each
    absorbed total its previous value plus the stride's partial sum; a
    non-finite norm raises :class:`StabilityError`.  Then
    ``keep_stepping(i, row, step, t, norm2, (left, right))`` says whether
    row ``i`` (input order) steps on; a row that stops leaves the stack.
    Each trajectory counts its own row's steps and the kernel calls made
    while it was in the stack, the snapshots' included; its final state is
    stamped ``t0 + step * dt``, the clock of its ``times``.
    """
    dt, grid = cfg.dt, states[0].grid
    prop = _Propagator(grid, potential, dt, cfg.absorber, units, len(states))
    amps = np.array([psi.amps for psi in states], dtype=complex)

    def snapshot(row, step, absorbed):
        n2, mx, mp, width = _moments(row, grid, units.hbar)
        if n2 > 0.0:  # _moments transforms every row that is not null
            prop.transforms += 1
        return (t0 + step * dt, n2, mx, mp, width, *absorbed)

    records = [[snapshot(row, 0, (0.0, 0.0))] for row in amps]
    trajectories = [None] * len(states)

    def finish(i, row, step):
        times, norm2, mean_x, mean_p, width, left, right = np.array(records[i]).T
        trajectories[i] = Trajectory(
            times=times,
            mean_x=mean_x,
            mean_p=mean_p,
            width=width,
            norm2=norm2,
            absorbed_left=left,
            absorbed_right=right,
            final_state=states[i].with_amps(row.copy(), time=t0 + step * dt),
            state_steps=step,
            transforms=prop.transforms,
        )

    live = list(range(len(states)))
    step = 0
    while live and step < cfg.n_steps:
        k = min(cfg.record_every, cfg.n_steps - step)
        ledger = np.zeros((len(live), 2))
        amps = prop.advance(amps, k, ledger)
        step += k
        keep = []
        for r, i in enumerate(live):
            row, last = amps[r], records[i][-1]
            snap = snapshot(row, step, (last[5] + ledger[r, 0], last[6] + ledger[r, 1]))
            if not np.isfinite(snap[1]):
                raise StabilityError(f"norm became non-finite at step {step}")
            records[i].append(snap)
            if keep_stepping(i, row, step, snap[0], snap[1], snap[5:]):
                keep.append(r)
            else:
                finish(i, row, step)
        if len(keep) < len(live):
            amps = amps[keep]
            live = [live[r] for r in keep]
    for r, i in enumerate(live):
        finish(i, amps[r], step)
    return trajectories, live


def split_step_evolve(
    psi: WaveFunction,
    potential: Linear | PiecewiseLinear,
    cfg: SolverConfig,
    units: UnitSystem = NATURAL,
    on_snapshot=None,
) -> Trajectory:
    """Evolve ``psi`` for ``cfg.n_steps`` steps of ``cfg.dt``.

    Snapshots (including the initial and final state) are recorded every
    ``cfg.record_every`` steps.  Raises :class:`StabilityError` if the norm
    drifts by more than 1e-6 with the absorber off (which for this unitary
    scheme can only mean non-finite input somewhere); warns once if the state
    touches a non-absorbing boundary.  The returned trajectory records the
    largest drift and the time of that warning (``max_norm_drift``,
    ``boundary_time``).  ``psi`` itself is left unchanged.
    For a sloped :class:`Linear` potential (v0 != 0), raises
    :class:`CoverageError` before the first step if the run's momentum kick
    ``v0 * n_steps * dt`` would wrap the state around the momentum grid
    (``core._check_kick``, one forward transform).

    ``on_snapshot``, if given, is called with each snapshot state (a copy
    the caller may keep, stamped with its time) once that snapshot has
    passed the checks above, so a caller can reduce the states as they
    arrive instead of holding all of them.
    """
    guard = isinstance(potential, Linear) and potential.v0 != 0.0  # the kick guard: one FFT
    if guard:
        # the run translates the spectrum by its whole kick v0*T and leaves
        # its modulus alone, so the initial spectrum shows what would wrap
        kick = potential.v0 * cfg.n_steps * cfg.dt
        _check_kick(_fft(psi.amps), psi.grid, units, kick)
    initial_norm = psi.norm2()
    max_drift, boundary_time = (None if cfg.absorber is not None else 0.0), None

    def keep_stepping(_, row, step, t, n2, absorbed):
        nonlocal max_drift, boundary_time
        if max_drift is not None:  # no absorber
            drift = abs(n2 - initial_norm)
            if drift > 1e-6 * max(initial_norm, 1.0):
                raise StabilityError(
                    f"norm drifted to {n2!r} from {initial_norm!r} "
                    f"at step {step} with no absorber"
                )
            max_drift = max(max_drift, drift)
            if boundary_time is None and _band_share(row) > _EDGE_THRESHOLD:
                _warn(
                    f"state reached a non-absorbing boundary at t={t!r}",
                    BoundaryContaminationWarning,
                )
                boundary_time = t
        if on_snapshot is not None:
            on_snapshot(psi.with_amps(row.copy(), time=t))
        return True

    if on_snapshot is not None:
        on_snapshot(psi.with_amps(np.array(psi.amps, dtype=complex)))
    (traj,), _ = _stride_loop([psi], potential, cfg, units, keep_stepping, psi.time)
    return traj._replace(
        transforms=traj.transforms + guard, max_norm_drift=max_drift, boundary_time=boundary_time
    )


class ConvergenceStudy(NamedTuple):
    """(dt, error) pairs against a reference state, with a log-log fit.

    Each dt is the one the run stepped: the requested dt snapped to a whole
    number of steps.  ``non_monotone`` flags sequences that stop improving
    at first order or better between adjacent dts (outright increases
    included): the roundoff or grid-resolution floor was reached inside the
    dt range.  The slope is fitted over the clean leading entries only.
    """

    entries: tuple
    slope: float
    non_monotone: bool


def _single_run(psi, potential, total_time, dt, units=NATURAL):
    """Evolve ``psi`` for ``total_time`` in ``round(total_time / dt)`` steps
    (at least one) of the snapped dt, recording only the initial and final
    snapshots; the step count is the trajectory's ``state_steps``."""
    n = max(1, round(total_time / dt))
    cfg = SolverConfig(dt=total_time / n, n_steps=n, record_every=n)
    return split_step_evolve(psi, potential, cfg, units)


def _study(psi, potential, total_time, dts, reference, units=NATURAL):
    """The dt ladder: each run's L2 distance from ``reference`` (the exact
    state, or a finer run) at its stepped dt, which must strictly decrease."""
    entries = []
    for dt in dts:
        run = _single_run(psi, potential, total_time, dt, units)
        dt_run = total_time / run.state_steps
        if entries and dt_run >= entries[-1][0]:
            raise ValueError(f"stepped dts must be strictly decreasing: {dt!r} steps {dt_run!r}")
        entries.append((dt_run, l2_distance(run.final_state, reference)))
    dts_run, errors = np.array(entries).T
    # local order between adjacent dts; a stall (order < 1) marks the floor
    stop = len(errors)
    for i in range(1, len(errors)):
        ratio_e = errors[i] / max(errors[i - 1], 1e-300)
        ratio_d = dts_run[i] / dts_run[i - 1]
        if ratio_e >= 1.0 or np.log(ratio_e) / np.log(ratio_d) < 1.0:
            stop = i
            break
    non_monotone = stop < len(errors)
    fit_d = np.log(dts_run[:stop])
    fit_e = np.log(np.maximum(errors[:stop], 1e-300))
    slope = float(np.polyfit(fit_d, fit_e, 1)[0]) if stop >= 2 else float("nan")
    return ConvergenceStudy(tuple(entries), slope, non_monotone)


def convergence_study(
    psi: WaveFunction,
    potential: Linear | PiecewiseLinear,
    total_time: float,
    dt_list,
    units: UnitSystem = NATURAL,
    refine: int = 4,
) -> ConvergenceStudy:
    """L2 error of the final state at each dt, against a Richardson
    reference run at ``min(dt)/refine``.  Each dt is snapped to an integer
    number of steps, and the snapped dts must be strictly decreasing."""
    dts = [float(d) for d in dt_list]
    reference = _single_run(psi, potential, total_time, min(dts) / refine, units).final_state
    return _study(psi, potential, total_time, dts, reference, units)

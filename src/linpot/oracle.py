"""Independent split-step Fourier solver for the time-dependent Schrodinger
equation with arbitrary sampled potentials.

One step applies the second-order symmetric (Strang) splitting

    psi -> exp(-i V dt / 2 hbar) . IFFT[ exp(-i hbar k^2 dt / 2m) . FFT[ psi ] ]
           . exp(-i V dt / 2 hbar)

whose global error is O(dt^2).  Each factor is exactly unitary, so without an
absorber the norm is conserved to roundoff; the measured convergence order is
itself a test asset (see :func:`convergence_study`).

Absorbing boundaries are a smooth amplitude mask applied once per step:
``exp(-strength * ramp(x) * dt / hbar)`` with a cos^2 ramp rising from the
inner edge of each absorbing band to the grid boundary.  They are off by
default and required for tunneling runs so transmitted flux does not wrap
around.  Probability removed by the mask is tracked per grid side every step,
so norm accounting stays exact.  Snapshot observables come from
``core._moments``, the routine behind the public observables.  The solver
keeps no snapshot states: a caller that needs them passes ``on_snapshot``
and receives each one as it is taken, so ``linpot evolve`` holds one state
at a time however many snapshots it writes.

One private propagator holds the phase factors of a (grid, potential, dt,
absorber) and steps either one state or a ``(B, n)`` stack of states in place
with ``scipy.fft`` (``overwrite_x``, transforms along the last axis).
:func:`split_step_evolve` steps its own copy of one state through it; the
tunneling width scan steps all its entries as one stack.  Between two
snapshots nobody looks at the state, so the closing half kick of one step and
the opening half kick of the next are merged into one full kick.  k steps
apply the half kick once, then k times the kinetic factor followed by
``half**2 * mask``, except that the last of them is followed by
``half * mask``.  This is the same product of operators, not an
approximation: the potential phase and the mask are both diagonal in position,
so they commute, and only roundoff differs from the per-step form.  The phase
has modulus 1, so the density on the absorbing bands just before a merged kick
equals the density the per-step scheme masks; the removed probability is
summed there, over the two contiguous edge slices of the bands, one dot
product per row, so a row of a stack sums exactly as it would alone.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field

import numpy as np
import scipy.fft as sp_fft

from .core import (
    _EDGE_THRESHOLD,
    NATURAL,
    Potential,
    SpatialGrid,
    UnitSystem,
    WaveFunction,
    _band_share,
    _moments,
    l2_distance,
)
from .errors import BoundaryContaminationWarning, StabilityError

__all__ = [
    "Absorber",
    "SolverConfig",
    "Trajectory",
    "split_step_evolve",
    "convergence_study",
    "ConvergenceStudy",
]


@dataclass(frozen=True)
class Absorber:
    """Complex absorbing mask at both grid edges.

    width_fraction is the fraction of the grid span covered by each band
    (at most 0.25); strength is the peak damping rate in energy units.
    Strong masks reflect: the defaults are tuned so a packet at the slowest
    momentum used in the test suite (p = 4 into a 0.2-fraction band) reflects
    below 1e-11 in probability, against the 1e-8 requirement.
    """

    width_fraction: float = 0.15
    strength: float = 5.0

    def __post_init__(self):
        if not (0.0 < self.width_fraction <= 0.25):
            raise ValueError("width_fraction must be in (0, 0.25]")
        if not 0.0 <= self.strength < np.inf:
            raise ValueError("strength must be non-negative and finite")

    def ramp(self, grid: SpatialGrid) -> np.ndarray:
        """Damping-rate profile: 0 in the interior, cos^2-shaped rise to
        ``strength`` at each boundary."""
        w = self.width_fraction * grid.span
        x = grid.x
        out = np.zeros(grid.n)
        left = x < grid.x_min + w
        right = x > grid.x_max - w
        s_left = (grid.x_min + w - x[left]) / w
        s_right = (x[right] - (grid.x_max - w)) / w
        out[left] = self.strength * np.sin(0.5 * np.pi * s_left) ** 2
        out[right] = self.strength * np.sin(0.5 * np.pi * s_right) ** 2
        return out


@dataclass(frozen=True)
class SolverConfig:
    """Step size, step budget, optional absorber, and snapshot stride."""

    dt: float
    n_steps: int
    absorber: Absorber | None = None
    record_every: int = 100

    def __post_init__(self):
        if not 0.0 < self.dt < np.inf:
            raise ValueError("dt must be positive and finite")
        if self.n_steps < 1:
            raise ValueError("n_steps must be at least 1")
        if self.record_every < 1:
            raise ValueError("record_every must be at least 1")


@dataclass
class Trajectory:
    """Snapshot record of one evolution.

    Stores reduced observables per snapshot (<x>, <p>, sigma-width, norm^2,
    cumulative absorbed probability per side) and the final state; a caller
    that needs the snapshot states themselves receives them one at a time
    through ``split_step_evolve``'s ``on_snapshot``.  Observables are
    expectation values of the current (renormalized) state; ``norm2`` tracks
    the surviving probability.
    """

    times: np.ndarray
    mean_x: np.ndarray
    mean_p: np.ndarray
    width: np.ndarray
    norm2: np.ndarray
    absorbed_left: np.ndarray
    absorbed_right: np.ndarray
    final_state: WaveFunction
    extras: dict = field(default_factory=dict)


class _Propagator:
    """Strang stepping for one grid, potential, dt and absorber.

    Builds the phase factors and the absorber's band weights once; every
    caller then steps its states with :meth:`advance`.
    """

    def __init__(self, grid, potential, dt, absorber=None, units=NATURAL):
        hbar, m = units.hbar, units.mass
        v = np.asarray(potential.evaluate(grid.x), dtype=float)
        if not np.all(np.isfinite(v)):
            raise StabilityError("potential evaluates to non-finite values on the grid")
        self.half = np.exp(-0.5j * v * dt / hbar)
        self.exp_k = np.exp(-1j * hbar * grid.k_wrap**2 * dt / (2.0 * m))
        self.full = self.half * self.half
        self.last = self.half.copy()
        self.absorbing = absorber is not None and absorber.strength > 0
        if self.absorbing:
            mask = np.exp(-absorber.ramp(grid) * dt / hbar)
            self.full *= mask
            self.last *= mask
            # removal weights over each band, repeated for the (re, im) pairs
            # of a float view of the amplitudes: weights . view**2 = sum |psi|^2 w
            removal = (1.0 - mask**2) * grid.dx
            n_mid = int(np.searchsorted(grid.x, grid.x_min + 0.5 * grid.span))
            w_left = np.repeat(np.trim_zeros(removal[:n_mid], "b"), 2)
            w_right = np.repeat(np.trim_zeros(removal[n_mid:], "f"), 2)
            # (points, weights) of the left band, (first point, weights) of
            # the right one
            self.bands = (len(w_left) // 2, w_left, grid.n - len(w_right) // 2, w_right)

    def advance(self, amps, k, ledger):
        """Step ``amps``, one state ``(n,)`` or a stack ``(B, n)`` of
        C-contiguous complex rows, ``k`` steps in place and return it (the
        returned array shares the input's buffer).  With the absorber on, the
        probability each row's bands remove is added to ``ledger``, shape
        ``(2,)`` or ``(B, 2)``: (left, right) per row."""
        half, full, last, exp_k = self.half, self.full, self.last, self.exp_k
        absorbing, single = self.absorbing, amps.ndim == 1
        if absorbing:
            n_left, w_left, start, w_right = self.bands
            # per row, the running (left, right) totals; the additions are
            # the ones a per-step update of ``ledger`` would make
            acc = ledger.reshape(-1, 2).tolist()
        amps *= half
        for j in range(k):
            # the transforms run along the last axis by default; passing
            # axis=-1 costs about 2.7 us more per call in scipy's dispatch
            amps = sp_fft.fft(amps, overwrite_x=True)
            amps *= exp_k
            amps = sp_fft.ifft(amps, overwrite_x=True)
            if absorbing:
                # |half| = 1, so |psi|^2 here equals the density after the
                # closing half kick, where the per-step scheme applies the
                # mask; one dot product per row, so a row sums as it would alone
                for row, a in zip((amps,) if single else amps, acc):
                    u = row[:n_left].view(float)
                    a[0] += np.dot(u * u, w_left)
                    u = row[start:].view(float)
                    a[1] += np.dot(u * u, w_right)
            amps *= last if j == k - 1 else full
        if absorbing:
            ledger[...] = np.reshape(acc, ledger.shape)
        return amps


def split_step_evolve(
    psi: WaveFunction,
    potential: Potential,
    cfg: SolverConfig,
    units: UnitSystem = NATURAL,
    on_snapshot=None,
) -> Trajectory:
    """Evolve ``psi`` for ``cfg.n_steps`` steps of ``cfg.dt``.

    Snapshots (including the initial and final state) are recorded every
    ``cfg.record_every`` steps.  Raises :class:`StabilityError` if the norm
    drifts by more than 1e-6 with the absorber off (which for this unitary
    scheme can only mean non-finite input somewhere); warns once if the state
    touches a non-absorbing boundary.  ``psi`` itself is left unchanged.

    ``on_snapshot``, if given, is called with each snapshot state (a copy
    the caller may keep, stamped with its time) once that snapshot has
    passed the checks above, so a caller can reduce the states as they
    arrive instead of holding all of them.
    """
    if psi.space != "position":
        raise ValueError("split_step_evolve expects a position-representation state")
    g = psi.grid
    dt, dx = cfg.dt, g.dx
    prop = _Propagator(g, potential, dt, cfg.absorber, units)

    amps = np.array(psi.amps, dtype=complex)
    n_snaps = cfg.n_steps // cfg.record_every + 1 + (
        1 if cfg.n_steps % cfg.record_every else 0
    )
    times = np.empty(n_snaps)
    obs = np.empty((n_snaps, 4))
    absorbed = np.zeros((n_snaps, 2))

    initial_norm = float(np.sum(np.abs(amps) ** 2) * dx)
    ledger = np.zeros(2)
    warned = False

    def record(i, step):
        t = psi.time + step * dt
        times[i] = t
        n2, mx, mp, rms = _moments(amps, g, units.hbar)
        obs[i] = n2, mx, mp, rms * np.sqrt(2.0)
        absorbed[i] = ledger
        return t

    def hand_over(t):
        if on_snapshot is not None:
            on_snapshot(psi.with_amps(amps.copy(), time=t))

    hand_over(record(0, 0))
    snap = 1
    step = 0
    while step < cfg.n_steps:
        k = min(cfg.record_every, cfg.n_steps - step)
        amps = prop.advance(amps, k, ledger)
        step += k
        t = record(snap, step)
        n2 = obs[snap, 0]
        if not np.isfinite(n2):
            raise StabilityError(f"norm became non-finite at step {step}")
        if not prop.absorbing:
            if abs(n2 - initial_norm) > 1e-6 * max(initial_norm, 1.0):
                raise StabilityError(
                    f"norm drifted to {n2!r} from {initial_norm!r} "
                    f"at step {step} with no absorber"
                )
            if not warned and _band_share(amps) > _EDGE_THRESHOLD:
                warnings.warn(
                    f"state reached a non-absorbing boundary at t={times[snap]!r}",
                    BoundaryContaminationWarning,
                    stacklevel=2,
                )
                warned = True
        hand_over(t)
        snap += 1

    final = psi.with_amps(amps, time=psi.time + cfg.n_steps * dt)
    return Trajectory(
        times=times[:snap],
        norm2=obs[:snap, 0],
        mean_x=obs[:snap, 1],
        mean_p=obs[:snap, 2],
        width=obs[:snap, 3],
        absorbed_left=absorbed[:snap, 0],
        absorbed_right=absorbed[:snap, 1],
        final_state=final,
    )


@dataclass(frozen=True)
class ConvergenceStudy:
    """(dt, error) pairs against a Richardson reference, with a log-log fit.

    ``non_monotone`` flags sequences that stop improving at first order or
    better between adjacent dts (outright increases included): the roundoff
    or grid-resolution floor was reached inside the dt range.  The slope is
    fitted over the clean leading entries only.
    """

    entries: tuple
    slope: float
    non_monotone: bool

    @property
    def errors(self):
        return np.array([e for _, e in self.entries])


def _single_run(psi, potential, total_time, dt, units):
    n = max(1, round(total_time / dt))
    cfg = SolverConfig(dt=total_time / n, n_steps=n, record_every=n)
    return split_step_evolve(psi, potential, cfg, units).final_state


def convergence_study(
    psi: WaveFunction,
    potential: Potential,
    total_time: float,
    dt_list,
    units: UnitSystem = NATURAL,
    refine: int = 4,
) -> ConvergenceStudy:
    """L2 error of the final state at each dt, against a reference run at
    ``min(dt)/refine``.  dt_list must be decreasing; each dt is snapped to an
    integer number of steps."""
    dts = [float(d) for d in dt_list]
    if any(b >= a for a, b in zip(dts, dts[1:])):
        raise ValueError("dt_list must be strictly decreasing")
    reference = _single_run(psi, potential, total_time, dts[-1] / refine, units)
    entries = []
    for dt in dts:
        final = _single_run(psi, potential, total_time, dt, units)
        entries.append((dt, l2_distance(final, reference)))
    errors = np.array([e for _, e in entries])
    # local order between adjacent dts; a stall (order < 1) marks the floor
    stop = len(errors)
    for i in range(1, len(errors)):
        ratio_e = errors[i] / max(errors[i - 1], 1e-300)
        ratio_d = dts[i] / dts[i - 1]
        if ratio_e >= 1.0 or np.log(ratio_e) / np.log(ratio_d) < 1.0:
            stop = i
            break
    non_monotone = stop < len(errors)
    fit_d = np.log([d for d, _ in entries[:stop]])
    fit_e = np.log(np.maximum(errors[:stop], 1e-300))
    slope = float(np.polyfit(fit_d, fit_e, 1)[0]) if stop >= 2 else float("nan")
    return ConvergenceStudy(tuple(entries), slope, non_monotone)

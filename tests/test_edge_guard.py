"""The edge-mass guard against boolean-mask reference strips.

The references below select their strips with a boolean mask over the axis,
and sum the masked density.  The guard computes
the same share from two edge slices; both must pick exactly the same points
and must trigger on the same states.
"""

import warnings

import numpy as np
import pytest

from linpot import (
    Free,
    Linear,
    SolverConfig,
    SpatialGrid,
    WaveFunction,
    free_evolve,
    linear_evolve,
    split_step_evolve,
    to_position_rep,
)
from linpot.core import NATURAL, _band_share, _kick_share, _wrap_share
from linpot.errors import BoundaryContaminationWarning, CoverageError

THRESHOLD = 1e-10
GRID = SpatialGrid(-16.0, 16.0, 512)
DX = GRID.dx
DP = float(GRID.p_sorted()[1] - GRID.p_sorted()[0])
P_RANGE = float(GRID.p_sorted()[-1] - GRID.p_sorted()[0])


# -- references: boolean-mask strips -------------------------------------------


def ref_position_strip(g, shift):
    # mirrored strips: x < x[0] + w for a positive shift, x > x[-1] - w for
    # a negative one, as the momentum strip below uses p[0] and p[-1]
    width = min(abs(shift), g.span)
    return g.x < g.x[0] + width if shift > 0 else g.x > g.x[-1] - width


def ref_momentum_strip(p, kick):
    # the points a kick carries past the end of the axis, p - p[0] < kick
    # for a positive kick and p[-1] - p < -kick for a negative one, in whole
    # steps of dp; clipped at the whole axis, all points but one
    strip = np.arange(len(p)) * (p[1] - p[0]) < abs(kick)
    strip[-1] = False
    return strip if kick > 0 else strip[::-1]


def ref_band(n):
    m = max(1, int(round(n * 0.05)))
    mask = np.zeros(n, dtype=bool)
    mask[:m] = True
    mask[-m:] = True
    return mask


def ref_masses(amps, mask, step):
    """(mass on the strip, total mass), summed as the guards used to."""
    density = np.abs(amps) ** 2
    return float(np.sum(density[mask]) * step), float(np.sum(density) * step)


def ref_share(amps, mask, step):
    mass, total = ref_masses(amps, mask, step)
    return mass / total


def ref_triggers(amps, mask, step):
    mass, total = ref_masses(amps, mask, step)
    return total > 0 and mass > THRESHOLD * total


def dense_amps(n, seed):
    rng = np.random.default_rng(seed)
    return rng.normal(size=n) + 1j * rng.normal(size=n)


# -- the share matches the masked share ---------------------------------------

SHIFTS = [s * f * DX for f in (0.5, 1.0, 3.7) for s in (1, -1)] + [
    GRID.span + 1.0,
    -(GRID.span + 1.0),
]
KICKS = [s * f * DP for f in (0.5, 3.7) for s in (1, -1)] + [P_RANGE, -P_RANGE]


@pytest.mark.parametrize("shift", SHIFTS)
def test_position_strip_share(shift):
    amps = dense_amps(GRID.n, 1)
    width = min(abs(shift), GRID.span)
    share = _wrap_share(amps, GRID.x, width, shift)
    ref = ref_share(amps, ref_position_strip(GRID, shift), DX)
    assert share == pytest.approx(ref, rel=1e-14)


def test_whole_dx_shifts_wrap_one_edge_point():
    # a shift by one dx wraps exactly the one grid point it carries across
    # the edge: x[0] going left, x[-1] going right
    assert np.flatnonzero(ref_position_strip(GRID, DX)).tolist() == [0]
    assert np.flatnonzero(ref_position_strip(GRID, -DX)).tolist() == [GRID.n - 1]
    amps = dense_amps(GRID.n, 4)
    total = np.vdot(amps, amps).real
    for shift, j in ((DX, 0), (-DX, GRID.n - 1)):
        share = _wrap_share(amps, GRID.x, DX, shift)
        assert share == pytest.approx(abs(amps[j]) ** 2 / total, rel=1e-14)


@pytest.mark.parametrize("kick", KICKS)
def test_momentum_strip_share(kick):
    p = GRID.p_sorted()
    amps = dense_amps(GRID.n, 2)
    share = _kick_share(amps, GRID, NATURAL, kick)
    ref = ref_share(amps, ref_momentum_strip(p, kick), DP)
    assert share == pytest.approx(ref, rel=1e-14)


def test_clipped_kick_covers_all_points_but_one():
    p = GRID.p_sorted()
    assert np.flatnonzero(~ref_momentum_strip(p, P_RANGE)).tolist() == [GRID.n - 1]
    assert np.flatnonzero(~ref_momentum_strip(p, -P_RANGE)).tolist() == [0]
    for kick in (P_RANGE, -P_RANGE, 3.0 * P_RANGE, -3.0 * P_RANGE):
        mask = ref_momentum_strip(p, kick)
        # a wider kick is clipped to the same strip
        assert np.array_equal(mask, ref_momentum_strip(p, np.sign(kick) * P_RANGE))
        # and the guard wraps exactly the points of the strip
        for j in range(GRID.n):
            amps = np.zeros(GRID.n, dtype=complex)
            amps[j] = 1.0
            assert _kick_share(amps, GRID, NATURAL, kick) == mask[j]


@pytest.mark.parametrize("n", [16, 512, 2048])
def test_band_share(n):
    amps = dense_amps(n, 3)
    ref = ref_share(amps, ref_band(n), 1.0)
    assert _band_share(amps) == pytest.approx(ref, rel=1e-14)


def test_null_state_has_no_edge_share():
    assert _band_share(np.zeros(64, dtype=complex)) == 0.0


# -- the guards trigger exactly when the references do ------------------------


def spiked(axis, mask, j, factor):
    """A bump centred on the points off the strip ``mask`` and zero on it,
    plus one spike at index ``j`` that carries ``factor`` times the
    threshold share of the norm."""
    centre = float(np.mean(axis[~mask]))
    amps = np.where(mask, 0.0, np.exp(-0.5 * (axis - centre) ** 2)).astype(complex)
    amps[j] = 0.0
    base = np.vdot(amps, amps).real
    share = factor * THRESHOLD
    amps[j] = np.sqrt(share * base / (1.0 - share))
    return amps


def edge_cases(mask):
    """Spikes just inside the inner end of a one-sided strip, on either side
    of the threshold, and just outside it, above the threshold.  A strip of
    all points but one leaves no outside point but the bump's own, so its
    third spike sits mid-axis, past the half of the axis where the strip
    starts, and trips the guard too."""
    idx = np.flatnonzero(mask)
    inside, outside = (idx[-1], idx[-1] + 1) if mask[0] else (idx[0], idx[0] - 1)
    if len(idx) == len(mask) - 1:
        outside = len(mask) // 2 if mask[0] else len(mask) // 2 - 1
    return [(inside, 1.01), (inside, 0.99), (outside, 1.01)]


def band_cases(mask):
    """edge_cases at both strips of a two-sided band."""
    n, m = len(mask), int(mask[: len(mask) // 2].sum())
    return [(m - 1, 1.01), (m - 1, 0.99), (m, 1.01)] + [
        (n - m, 1.01), (n - m, 0.99), (n - m - 1, 1.01)
    ]


def raises_coverage(call, keyword):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", BoundaryContaminationWarning)
        try:
            call()
        except CoverageError as exc:
            assert keyword in str(exc)
            return True
    return False


def warns_boundary(call):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        call()
    return any(issubclass(w.category, BoundaryContaminationWarning) for w in caught)


@pytest.mark.parametrize("shift", [f * DX for f in (3.7, -3.7, 1.5, -1.5)])
def test_position_guard_threshold(shift):
    mask = ref_position_strip(GRID, shift)
    expected = []
    for j, factor in edge_cases(mask):
        psi = WaveFunction(GRID, spiked(GRID.x, mask, j, factor))
        expected.append(ref_triggers(psi.amps, mask, DX))
        # the right ordering checks its input against the argument shift
        # -v0 dt^2/2 = shift before it evolves anything
        call = lambda: linear_evolve(psi, -2.0 * shift, 1.0, ordering="right")
        assert raises_coverage(call, "wrap") == expected[-1], (j, factor)
    assert expected == [True, False, False]


@pytest.mark.parametrize("kick", [3.7 * DP, -3.7 * DP, P_RANGE, -P_RANGE])
def test_momentum_guard_threshold(kick):
    p = GRID.p_sorted()
    mask = ref_momentum_strip(p, kick)
    whole = mask.sum() == GRID.n - 1
    expected = []
    for j, factor in edge_cases(mask):
        tilde = spiked(p, mask, j, factor)
        psi = to_position_rep(GRID, tilde)
        expected.append(ref_triggers(tilde, mask, DP))
        # the position closed forms and the solver guard the same kick
        # v0*dt; so short a dt keeps the argument shift kick*dt/2 below one
        # dx, and one solver step takes the whole kick
        dt = 1e-3
        calls = [
            lambda: split_step_evolve(psi, Linear(kick / dt), SolverConfig(dt=dt, n_steps=1)),
        ]
        if not whole:
            # a bump on one momentum point is a plane wave, which the
            # position closed forms' argument-shift guard stops first
            calls += [
                lambda o=o: linear_evolve(psi, kick / dt, dt, ordering=o)
                for o in ("left", "right")
            ]
        for call in calls:
            assert raises_coverage(call, "momentum kick") == expected[-1], (j, factor)
    assert expected == [True, False, whole]


@pytest.mark.parametrize("n", [16, 512, 2048])
def test_band_warnings_threshold(n):
    g = SpatialGrid(-16.0, 16.0, n)
    mask = ref_band(n)
    cfg = SolverConfig(dt=1e-12, n_steps=1, record_every=1)
    expected = []
    for j, factor in band_cases(mask):
        psi = WaveFunction(g, spiked(g.x, mask, j, factor))
        expected.append(ref_triggers(psi.amps, mask, g.dx))
        # the exact and the split-step engine warn on the same band
        assert warns_boundary(lambda: free_evolve(psi, 0.0)) == expected[-1]
        solver = warns_boundary(lambda: split_step_evolve(psi, Free(), cfg))
        assert solver == expected[-1], (j, factor)
    assert expected == [True, False, False] * 2

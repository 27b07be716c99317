import math
import re
import warnings

import numpy as np
import pytest
import scipy.fft

from linpot import (
    NATURAL,
    Absorber,
    GaussianSpec,
    Linear,
    PiecewiseLinear,
    SolverConfig,
    SpatialGrid,
    convergence_study,
    free_evolve,
    l2_distance,
    linear_evolve,
    mean_momentum,
    mean_position,
    sample_gaussian,
    spatial_width,
    split_step_evolve,
)
from linpot.core import _EDGE_THRESHOLD, _band_share
from linpot.errors import BoundaryContaminationWarning, CoverageError, StabilityError
from linpot.oracle import _Propagator


class TestSolverConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            SolverConfig(dt=-1.0, n_steps=10)
        with pytest.raises(ValueError):
            SolverConfig(dt=1e-3, n_steps=0)
        with pytest.raises(ValueError):
            Absorber(width_fraction=0.3)
        with pytest.raises(ValueError):
            Absorber(strength=-1.0)
        # "no absorber" is only None: a zero-strength one was a second spelling
        with pytest.raises(ValueError, match="^strength must be positive and finite$"):
            Absorber(strength=0.0)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_steps", math.nan),
            ("n_steps", math.inf),
            ("n_steps", 10.5),
            ("record_every", 2.5),
            ("n_steps", True),
        ],
        ids=["nan", "inf", "fraction", "fractional-stride", "bool"],
    )
    def test_step_counts_are_whole_numbers(self, name, value):
        # unrefused: 0 steps for nan, a run that never returns for inf, a
        # TypeError inside the step loop for a fraction, one step for True
        with pytest.raises(ValueError, match=f"^{name} must be a whole number of at least 1"):
            SolverConfig(dt=1e-3, **{"n_steps": 10, name: value})

    def test_numpy_integer_step_counts_are_whole_numbers(self):
        cfg = SolverConfig(dt=1e-3, n_steps=np.int64(10), record_every=np.int32(5))
        assert (cfg.n_steps, cfg.record_every) == (10, 5)


class TestSplitStep:
    def test_free_case_exact(self, grid, packet):
        # splitting is a single exponential when V = 0: any dt is exact
        cfg = SolverConfig(dt=0.05, n_steps=20, record_every=20)
        traj = split_step_evolve(packet, Linear(0.0), cfg)
        exact = free_evolve(packet, 1.0)
        assert l2_distance(traj.final_state, exact) < 1e-10

    @pytest.mark.parametrize(
        "potential, absorber, guard",
        [(Linear(0.5), None, 1), (Linear(0.0), Absorber(), 0)],
        ids=["linear", "free-absorber"],
    )
    def test_transforms_counts_every_kernel_call(
        self, packet, kernel_calls, potential, absorber, guard
    ):
        # two per step, one per snapshot for the moments (steps 0, 100, 200
        # and 250) and, for a Linear potential, the kick guard's
        cfg = SolverConfig(dt=1e-3, n_steps=250, absorber=absorber, record_every=100)
        traj = split_step_evolve(packet, potential, cfg)
        assert traj.transforms == kernel_calls["n"] == 2 * 250 + 4 + guard

    def test_linear_matches_analytic_at_reference_dt(self, grid):
        # dt = 1e-4 is the documented reference step: the distance to the
        # closed form lands near 5e-10, an order under the 1e-8 requirement
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
        exact = linear_evolve(psi, 1.0, 1.0).psi
        cfg = SolverConfig(dt=1e-4, n_steps=10000, record_every=10000)
        traj = split_step_evolve(psi, Linear(1.0), cfg)
        assert l2_distance(traj.final_state, exact) < 1e-8

    def test_classical_mean_trajectory(self, grid):
        spec = GaussianSpec(x0=-2.0, p0=3.0, sigma=1.0)
        psi = sample_gaussian(spec, grid)
        v0 = 1.5
        cfg = SolverConfig(dt=1e-3, n_steps=800, record_every=100)
        traj = split_step_evolve(psi, Linear(v0), cfg)
        expected = spec.x0 + spec.p0 * traj.times - v0 * traj.times**2 / 2
        np.testing.assert_allclose(traj.mean_x, expected, atol=1e-8)
        np.testing.assert_allclose(
            traj.mean_p, spec.p0 - v0 * traj.times, atol=1e-8
        )

    def test_snapshot_moments_equal_public_moments(self, packet):
        # one moments routine: the last snapshot reads exactly what the
        # public observables read off the final state
        cfg = SolverConfig(dt=1e-3, n_steps=300, record_every=100)
        traj = split_step_evolve(packet, Linear(1.5), cfg)
        final = traj.final_state
        assert traj.mean_x[-1] == mean_position(final)
        assert traj.mean_p[-1] == mean_momentum(final)
        assert traj.width[-1] == spatial_width(final)

    @pytest.mark.parametrize("v0", [300.0, -300.0])
    def test_kick_leaving_momentum_grid_raises(self, v0):
        # the run's kick v0 * T = +-30 exceeds the +-25 momentum grid:
        # unchecked, v0 = 300 ends at <p> = +20.27 instead of -30
        g = SpatialGrid(-16.0, 16.0, 256)
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), g)
        cfg = SolverConfig(dt=1e-4, n_steps=1000)
        with pytest.raises(CoverageError, match="momentum kick") as exc:
            split_step_evolve(psi, Linear(v0), cfg)
        # the n the message asks for holds the kick
        n = int(re.search(r"n >= (\d+) on this span", str(exc.value)).group(1))
        fine = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), SpatialGrid(-16.0, 16.0, n))
        traj = split_step_evolve(fine, Linear(v0), cfg)
        assert traj.mean_p[-1] == pytest.approx(-v0 * 0.1, abs=1e-6)

    def test_unitarity_long_run(self, grid, packet):
        cfg = SolverConfig(dt=1e-4, n_steps=10000, record_every=1000)
        traj = split_step_evolve(packet, Linear(0.5), cfg)
        assert np.max(np.abs(traj.norm2 - 1.0)) < 1e-10

    def test_snapshot_cadence(self, grid, packet):
        cfg = SolverConfig(dt=1e-3, n_steps=250, record_every=100)
        traj = split_step_evolve(packet, Linear(0.0), cfg)
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.25], atol=1e-12)

    def test_on_snapshot_gets_every_snapshot(self, grid, packet):
        cfg = SolverConfig(dt=1e-3, n_steps=200, record_every=100)
        seen = []
        traj = split_step_evolve(packet, Linear(0.0), cfg, on_snapshot=seen.append)
        assert len(seen) == len(traj.times)
        assert [s.time for s in seen] == list(traj.times)
        assert l2_distance(seen[-1], traj.final_state) == 0.0

    def test_failed_snapshot_is_not_handed_over(self, packet):
        # the norm check runs before the hand-over: only snapshot 0 arrives
        amps = packet.amps.copy()
        amps[7] = np.nan
        bad = packet.with_amps(amps)
        seen = []
        cfg = SolverConfig(dt=1e-3, n_steps=30, record_every=10)
        with pytest.raises(StabilityError, match="non-finite at step 10"):
            split_step_evolve(bad, Linear(0.0), cfg, on_snapshot=seen.append)
        assert [s.time for s in seen] == [0.0]

    def test_non_finite_potential_raises(self, packet):
        # finite knots whose slope overflows: the values on the grid are not
        potential = PiecewiseLinear(((-1.0, -1e308), (1.0, 1e308)))
        with pytest.raises(StabilityError):
            split_step_evolve(packet, potential, SolverConfig(dt=1e-3, n_steps=10))

    def test_infinite_slope_is_refused_before_any_warning(self, packet):
        # an infinite slope would overflow the phase tables, with a warning,
        # before the solver's own non-finite check
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="v0 must be finite"):
                split_step_evolve(packet, Linear(np.inf), SolverConfig(dt=1e-3, n_steps=10))

    def test_boundary_contamination_warns(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        psi = sample_gaussian(GaussianSpec(0.0, 8.0, 1.0), g)
        cfg = SolverConfig(dt=1e-3, n_steps=1800, record_every=300)
        with pytest.warns(BoundaryContaminationWarning) as record:
            split_step_evolve(psi, Linear(0.0), cfg)
        # the warning points at the line that called split_step_evolve
        assert [w.filename for w in record] == [__file__]

    def test_drift_and_boundary_time_of_the_snapshots(self):
        # the packet of the warning test above: it reaches the edge band
        # between t = 0.6 and 1.8
        g = SpatialGrid(-16.0, 16.0, 512)
        psi = sample_gaussian(GaussianSpec(0.0, 8.0, 1.0), g)
        cfg = SolverConfig(dt=1e-3, n_steps=1800, record_every=300)
        seen = []
        with pytest.warns(BoundaryContaminationWarning):
            traj = split_step_evolve(psi, Linear(0.0), cfg, on_snapshot=seen.append)
        initial = float(np.sum(psi.density()) * g.dx)
        assert traj.max_norm_drift == np.max(np.abs(traj.norm2[1:] - initial))
        touched = [s.time for s in seen[1:] if _band_share(s.amps) > _EDGE_THRESHOLD]
        assert 0.6 < traj.boundary_time == touched[0] < 1.8

    def test_absorbing_run_has_no_drift_or_boundary_time(self, packet):
        cfg = SolverConfig(dt=1e-3, n_steps=20, absorber=Absorber(), record_every=10)
        traj = split_step_evolve(packet, Linear(0.0), cfg)
        assert (traj.max_norm_drift, traj.boundary_time) == (None, None)

    def test_time_reversal_via_conjugation(self, grid):
        # K U(dt) K = U(-dt) exactly for real potentials, so
        # conj -> evolve -> conj inverts the evolution
        psi = sample_gaussian(GaussianSpec(-2.0, 2.0, 1.0), grid)
        barrier = PiecewiseLinear(((0.0, 0.0), (1.0, 3.0), (2.0, 0.0)))
        cfg = SolverConfig(dt=1e-3, n_steps=1000, record_every=1000)
        forward = split_step_evolve(psi, barrier, cfg).final_state
        conj = forward.with_amps(np.conj(forward.amps))
        back = split_step_evolve(conj, barrier, cfg).final_state
        back = back.with_amps(np.conj(back.amps))
        assert l2_distance(psi, back) < 1e-9


def _mask_ramp(absorber, g):
    """``Absorber.ramp`` written on boolean masks of the band points."""
    w = absorber.width_fraction * g.span
    x, out = g.x, np.zeros(g.n)
    left, right = x < g.x_min + w, x > g.x_max - w
    s_left = (g.x_min + w - x[left]) / w
    s_right = (x[right] - (g.x_max - w)) / w
    out[left] = absorber.strength * np.sin(0.5 * np.pi * s_left) ** 2
    out[right] = absorber.strength * np.sin(0.5 * np.pi * s_right) ** 2
    return out


# (grid, absorber, dt): the tunnel.cfg and c09 band, c07's, the default
# absorber, this suite's 0.2 / 5 band and a step so short that the removal
# weight of the innermost band points is about 1e-13
ABSORBER_CASES = {
    "tunnel": (SpatialGrid(-128.0, 128.0, 2048), Absorber(0.2, 12.0), 2e-3),
    "c07": (SpatialGrid(-80.0, 80.0, 2048), Absorber(0.15, 40.0), 1e-3),
    "default": (SpatialGrid(-20.0, 20.0, 512), Absorber(), 1e-3),
    "suite": (SpatialGrid(-32.0, 32.0, 1024), Absorber(0.2, 5.0), 2e-3),
    "short-dt": (SpatialGrid(-128.0, 128.0, 2048), Absorber(0.2, 12.0), 1e-9),
}


class TestAbsorber:
    @pytest.mark.parametrize("case", ABSORBER_CASES)
    def test_ramp_and_bands_share_the_edges(self, case):
        g, absorber, dt = ABSORBER_CASES[case]
        ramp = absorber.ramp(g)
        assert ramp.tobytes() == _mask_ramp(absorber, g).tobytes()
        # the bands are the points beyond the inner edges, exactly the points
        # where the ramp is positive, and the propagator weights those points
        n_left, start = absorber._bands(g)
        bands = _Propagator(g, Linear(0.0), dt, absorber, NATURAL, 1).bands
        assert bands[0::2] == (n_left, start)
        w_left, w_right = bands[1::2]
        _, left, right = absorber._edges(g)
        assert g.x[n_left - 1] < left <= g.x[n_left]
        assert g.x[start - 1] <= right < g.x[start]
        positive = ramp > 0
        assert positive[:n_left].all() and positive[start:].all()
        assert not positive[n_left:start].any()
        assert (len(w_left), len(w_right)) == (2 * n_left, 2 * (g.n - start))

    # A left-moving packet gains about 7e-14 in norm per 200 steps before it
    # reaches the band; 200 bare FFT round trips of it already gain 2.7e-14,
    # so that is the FFT's roundoff floor, not the absorber.
    @pytest.mark.parametrize(
        "p0, roundoff", [(4.0, 1e-14), (-4.0, 1e-13)], ids=["right", "left"]
    )
    def test_norm_non_increasing_and_attributed(self, p0, roundoff):
        # sigma = 2 keeps the slow momentum tail negligible, so the whole
        # packet reaches the band it moves toward within the run
        g = SpatialGrid(-32.0, 32.0, 1024)
        psi = sample_gaussian(GaussianSpec(0.0, p0, 2.0), g)
        cfg = SolverConfig(
            dt=2e-3,
            n_steps=7000,
            absorber=Absorber(width_fraction=0.2, strength=5.0),
            record_every=200,
        )
        traj = split_step_evolve(psi, Linear(0.0), cfg)
        assert np.all(np.diff(traj.norm2) <= roundoff)
        assert traj.norm2[-1] < 1e-8
        # bookkeeping is exact even though ~1e-7 leaks *through* this narrow
        # band, wraps, and is eaten by the far band
        toward, away = traj.absorbed_right, traj.absorbed_left
        if p0 < 0:
            toward, away = away, toward
        assert toward[-1] == pytest.approx(1.0, abs=1e-6)
        assert away[-1] < 1e-6
        total = traj.norm2[-1] + traj.absorbed_left[-1] + traj.absorbed_right[-1]
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_reflection_below_threshold_at_suite_momenta(self):
        # slowest packet momentum used anywhere in the suite is p0 = 4; the
        # probability it reflects off the band must stay below 1e-8.
        # Reflected flux is the interior mass moving backwards (p < 0) once
        # the incident bulk is gone; sigma = 2 keeps the slow forward tail
        # (still in transit at the end) out of that projection.
        from linpot import to_momentum_rep

        g = SpatialGrid(-128.0, 128.0, 2048)
        psi = sample_gaussian(GaussianSpec(40.0, 4.0, 2.0), g)
        cfg = SolverConfig(
            dt=2e-3,
            n_steps=25000,
            absorber=Absorber(width_fraction=0.2, strength=5.0),
            record_every=2500,
        )
        traj = split_step_evolve(psi, Linear(0.0), cfg)
        final = traj.final_state
        reflected = 0.0
        if final.norm2() > 0:
            p, amps = to_momentum_rep(final)
            reflected = float(np.sum(np.abs(amps[p < -0.05]) ** 2) * (p[1] - p[0]))
        assert reflected < 1e-8
        assert traj.absorbed_right[-1] > 1.0 - 1e-6


def _textbook_evolve(psi, potential, cfg):
    """Strang steps V/2 . K . V/2 . mask with numpy.fft, one step at a time,
    and the removed probability summed through boolean band masks.  Returns
    the final amplitudes and the per-side absorbed totals at each snapshot."""
    g = psi.grid
    half = np.exp(-0.5j * potential.evaluate(g.x) * cfg.dt)
    exp_k = np.exp(-0.5j * g.k_wrap**2 * cfg.dt)
    mask = np.ones(g.n)
    if cfg.absorber is not None:
        mask = np.exp(-cfg.absorber.ramp(g) * cfg.dt)
    removal = 1.0 - mask**2
    left = (removal > 0) & (g.x < 0.5 * (g.x_min + g.x_max))
    right = (removal > 0) & ~left
    amps = psi.amps.copy()
    acc_left = acc_right = 0.0
    absorbed = [(0.0, 0.0)]
    for step in range(1, cfg.n_steps + 1):
        amps = half * np.fft.ifft(exp_k * np.fft.fft(half * amps))
        rho = np.abs(amps) ** 2
        acc_left += np.sum(rho[left] * removal[left]) * g.dx
        acc_right += np.sum(rho[right] * removal[right]) * g.dx
        amps = amps * mask
        if step % cfg.record_every == 0 or step == cfg.n_steps:
            absorbed.append((acc_left, acc_right))
    return amps, np.array(absorbed)


class TestTextbookReference:
    """The solver steps its own copy in place, with the half kicks between
    snapshots merged; a plain per-step loop must give the same evolution."""

    @pytest.mark.parametrize(
        "absorber, record_every",
        [
            (Absorber(width_fraction=0.2, strength=5.0), 37),
            (None, 37),
            (Absorber(width_fraction=0.2, strength=5.0), 1),
            (None, 1),
        ],
        ids=["absorber", "no-absorber", "absorber-every-step", "no-absorber-every-step"],
    )
    def test_matches_per_step_loop(self, absorber, record_every):
        # two packets run into opposite bands on a slope, so both sides of
        # the ledger and the potential phase are exercised
        g = SpatialGrid(-24.0, 24.0, 512)
        right = sample_gaussian(GaussianSpec(6.0, 8.0, 1.0), g)
        left = sample_gaussian(GaussianSpec(-6.0, -8.0, 1.0), g)
        psi = right.with_amps((right.amps + left.amps) / np.sqrt(2.0))
        slope = Linear(0.5)
        cfg = SolverConfig(
            dt=5e-3, n_steps=300, absorber=absorber, record_every=record_every
        )
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryContaminationWarning)
            traj = split_step_evolve(psi, slope, cfg)
        amps, absorbed = _textbook_evolve(psi, slope, cfg)
        diff = traj.final_state.amps - amps
        assert np.sqrt(np.sum(np.abs(diff) ** 2) * g.dx) <= 1e-12
        assert len(traj.times) == len(absorbed)
        np.testing.assert_allclose(traj.absorbed_left, absorbed[:, 0], rtol=0, atol=1e-12)
        np.testing.assert_allclose(traj.absorbed_right, absorbed[:, 1], rtol=0, atol=1e-12)
        if absorber is not None:
            assert min(absorbed[-1]) > 0.1

    def test_input_untouched_and_snapshots_unaliased(self, packet):
        before = packet.amps.copy()
        cfg = SolverConfig(dt=1e-3, n_steps=30, record_every=10)
        seen = []
        traj = split_step_evolve(packet, Linear(1.0), cfg, on_snapshot=seen.append)
        np.testing.assert_array_equal(packet.amps, before)
        np.testing.assert_array_equal(seen[0].amps, before)
        assert len(seen) == len(traj.times)
        arrays = [s.amps for s in seen] + [traj.final_state.amps, packet.amps]
        for i, a in enumerate(arrays):
            for b in arrays[i + 1:]:
                assert not np.shares_memory(a, b)


class TestPropagatorStack:
    """A (B, n) stack must step exactly as its rows would one at a time."""

    @pytest.mark.parametrize(
        "absorber",
        [Absorber(width_fraction=0.2, strength=5.0), None],
        ids=["absorber", "no-absorber"],
    )
    def test_stack_matches_rows_bit_for_bit(self, absorber):
        g = SpatialGrid(-24.0, 24.0, 512)
        rows = [
            sample_gaussian(GaussianSpec(x0, p0, 1.0), g).amps
            for x0, p0 in ((6.0, 8.0), (-6.0, -8.0), (0.0, 3.0))
        ]
        prop = _Propagator(g, Linear(0.5), 5e-3, absorber, NATURAL, len(rows))
        stack = np.array(rows)
        buffer = stack
        ledger = np.zeros((3, 2))
        # two calls: the ledger accumulates across them
        for k in (137, 163):
            stack = prop.advance(stack, k, ledger)
        assert np.shares_memory(stack, buffer)
        for i, amps in enumerate(rows):
            alone, own = amps[None].copy(), np.zeros((1, 2))
            for k in (137, 163):
                alone = prop.advance(alone, k, own)
            np.testing.assert_array_equal(stack[i], alone[0])
            np.testing.assert_array_equal(ledger[i], own[0])
        if absorber is None:
            assert not ledger.any()
        else:
            # the first two packets run into opposite bands
            assert ledger[0, 1] > 0.1 and ledger[1, 0] > 0.1

    def test_shrinking_stack_matches_rows_bit_for_bit(self):
        # the stride loop drops rows between calls: 4 rows, then 3, then 1
        g = SpatialGrid(-24.0, 24.0, 512)
        rows = [
            sample_gaussian(GaussianSpec(x0, p0, 1.0), g).amps
            for x0, p0 in ((6.0, 8.0), (-6.0, -8.0), (0.0, 3.0), (3.0, -5.0))
        ]
        absorber = Absorber(width_fraction=0.2, strength=5.0)
        prop = _Propagator(g, Linear(0.5), 5e-3, absorber, NATURAL, len(rows))
        stack, ledger, live = np.array(rows), np.zeros((4, 2)), [0, 1, 2, 3]
        calls = ((137, [0, 1, 3]), (163, [1]), (120, []))
        left = {}
        for c, (k, keep) in enumerate(calls):
            stack = prop.advance(stack, k, ledger)
            for r, i in enumerate(live):
                if i not in keep:
                    left[i] = (c, stack[r].copy(), ledger[r].copy())
            kept = [live.index(i) for i in keep]
            stack, ledger, live = stack[kept], ledger[kept], keep
        for i, amps in enumerate(rows):
            c, stacked, stacked_ledger = left[i]
            alone, own = amps[None].copy(), np.zeros((1, 2))
            for k, _ in calls[: c + 1]:
                alone = prop.advance(alone, k, own)
            np.testing.assert_array_equal(stacked, alone[0])
            np.testing.assert_array_equal(stacked_ledger, own[0])
        # the first two packets run into opposite bands
        assert left[0][2][1] > 0.1 and left[1][2][0] > 0.1


def _scipy_fft_advance(prop, amps, k, ledger, terms=None):
    """``_Propagator.advance`` as written on ``scipy.fft.fft/ifft(overwrite_x=
    True)``; the direct kernel calls must reproduce it bit for bit.  The band
    densities are summed per point over the steps and weighted once at the
    end, the order ``advance`` sums them in.  Given ``terms``, a pair of
    lists, each step's weighted band squares are appended to them.  Every
    row of the propagator's tables is the same ``(n,)`` table; this reads
    row 0 and broadcasts it over ``amps``."""
    half, full, last, exp_k = prop.half[0], prop.full[0], prop.last[0], prop.exp_k[0]
    absorbing = prop.absorbing
    if absorbing:
        n_left, w_left, start, w_right = prop.bands
        sum_left = sum_right = 0.0
    amps *= half
    for j in range(k):
        amps = scipy.fft.fft(amps, overwrite_x=True)
        amps *= exp_k
        amps = scipy.fft.ifft(amps, overwrite_x=True)
        if absorbing:
            rows = amps.reshape(-1, amps.shape[-1])
            u = rows[:, :n_left].view(float)
            sq_left = u * u
            u = rows[:, start:].view(float)
            sq_right = u * u
            sum_left = sum_left + sq_left
            sum_right = sum_right + sq_right
            if terms is not None:
                terms[0].append(sq_left * w_left)
                terms[1].append(sq_right * w_right)
        amps *= last if j == k - 1 else full
    if absorbing:
        for a, s_l, s_r in zip(ledger.reshape(-1, 2), sum_left, sum_right):
            a[0] += np.dot(s_l, w_left)
            a[1] += np.dot(s_r, w_right)
    return amps


class TestKernelBypass:
    """``advance`` calls scipy's FFT kernel directly; state and ledger must be
    those of the same loop written on ``scipy.fft``, bit for bit, and the
    propagator must count the work it did."""

    @pytest.mark.parametrize(
        "absorber",
        [Absorber(width_fraction=0.2, strength=5.0), None],
        ids=["absorber", "no-absorber"],
    )
    @pytest.mark.parametrize(
        "shape",
        [(), (1,), (2,), (3,)],
        ids=["state", "stack-of-1", "stack-of-2", "stack-of-3"],
    )
    def test_advance_equals_scipy_fft_loop(self, absorber, shape):
        g = SpatialGrid(-24.0, 24.0, 2048)
        starts = ((6.0, 8.0), (-6.0, -8.0), (0.0, 3.0))[: max(shape, default=1)]
        rows = [sample_gaussian(GaussianSpec(x0, p0, 1.0), g).amps for x0, p0 in starts]
        # the reference steps a lone state as an (n,) array; advance steps
        # it as a stack of one
        ref = np.array(rows).reshape(*shape, g.n)
        got = ref.reshape(-1, g.n).copy()
        prop = _Propagator(g, Linear(0.5), 5e-3, absorber, NATURAL, len(got))
        ref_ledger, ledger = np.zeros((*shape, 2)), np.zeros((len(got), 2))
        for k in (137, 163):
            ref = _scipy_fft_advance(prop, ref, k, ref_ledger)
            got = prop.advance(got, k, ledger)
        np.testing.assert_array_equal(got.reshape(ref.shape), ref)
        np.testing.assert_array_equal(ledger.reshape(ref_ledger.shape), ref_ledger)
        assert prop.transforms == 600
        if absorber is not None:
            # the first packet runs into the right band, the second the left
            per_row = ledger.reshape(-1, 2)
            assert per_row[0, 1] > 0.1
            assert len(rows) == 1 or per_row[1, 0] > 0.1

    def test_ledger_matches_exactly_rounded_per_step_sum(self):
        # one long call: the per-point sums over 2500 steps, weighted once,
        # against the exactly rounded sum of every step's weighted squares
        g = SpatialGrid(-24.0, 24.0, 512)
        absorber = Absorber(width_fraction=0.2, strength=5.0)
        prop = _Propagator(g, Linear(0.5), 5e-3, absorber, NATURAL, 1)
        right = sample_gaussian(GaussianSpec(6.0, 4.0, 1.0), g)
        left = sample_gaussian(GaussianSpec(-6.0, -4.0, 1.0), g)
        psi = (right.amps + left.amps) / np.sqrt(2.0)
        ledger, ref_ledger, terms = np.zeros((1, 2)), np.zeros(2), ([], [])
        got = prop.advance(psi[None].copy(), 2500, ledger)[0]
        ledger = ledger[0]
        ref = _scipy_fft_advance(prop, psi.copy(), 2500, ref_ledger, terms)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(ledger, ref_ledger)
        for side in (0, 1):
            exact = math.fsum(np.concatenate(terms[side], axis=None))
            gap = abs(ledger[side] - exact) / exact
            print(f"side {side}: ledger {ledger[side]!r}, exact {exact!r}, relative gap {gap:.2e}")
            assert exact > 0.1
            assert gap <= 1e-13


class TestConvergence:
    def test_second_order_on_barrier(self):
        # the packet crosses the barrier during the window; the kinks enlarge
        # the discrete commutator constants with n, so the asymptotic dt range
        # is reached on a moderate grid
        g = SpatialGrid(-32.0, 32.0, 1024)
        psi = sample_gaussian(GaussianSpec(-4.0, 6.0, 1.0), g)
        barrier = PiecewiseLinear(((0.0, 0.0), (1.5, 6.0), (3.0, 0.0)))
        study = convergence_study(
            psi,
            barrier,
            total_time=1.0,
            dt_list=(2e-3, 1e-3, 5e-4, 2.5e-4),
            refine=8,
        )
        assert not study.non_monotone
        assert study.slope == pytest.approx(2.0, abs=0.1)

    def test_halving_dt_quarters_error(self, grid):
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
        study = convergence_study(
            psi, Linear(1.5), total_time=0.4, dt_list=(4e-3, 2e-3)
        )
        (_, coarse), (_, fine) = study.entries
        ratio = coarse / fine
        assert ratio == pytest.approx(4.0, rel=0.1)

    def test_roundoff_plateau_flagged(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), g)
        study = convergence_study(
            psi, Linear(1.0), total_time=0.01, dt_list=(1e-3, 1e-4, 1e-5, 4e-6)
        )
        assert study.non_monotone

    def test_boundary_warnings_point_at_the_caller(self):
        # the packet reaches the edge band in each of the three runs
        g = SpatialGrid(-16.0, 16.0, 256)
        psi = sample_gaussian(GaussianSpec(0.0, 8.0, 1.0), g)
        with pytest.warns(BoundaryContaminationWarning) as record:
            convergence_study(psi, Linear(0.0), 1.6, (2e-2, 1e-2))
        assert [w.filename for w in record] == [__file__] * 3

    def test_requires_decreasing_dts(self, grid, packet):
        with pytest.raises(ValueError):
            convergence_study(packet, Linear(0.0), 0.1, (1e-3, 1e-3))

    def test_duplicate_step_counts_rejected(self, grid):
        # 0.01 / 3e-3 and 0.01 / 2.9e-3 both round to 3 steps: the two runs
        # are one run, not a roundoff floor
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
        with pytest.raises(ValueError, match="strictly decreasing"):
            convergence_study(psi, Linear(1.0), 0.01, (3e-3, 2.9e-3))

    def test_entries_carry_the_stepped_dt(self, grid):
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
        study = convergence_study(psi, Linear(1.0), 0.01, (3e-3, 1e-3))
        assert [dt for dt, _ in study.entries] == [0.01 / 3, 0.01 / 10]

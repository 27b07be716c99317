import warnings

import numpy as np
import pytest
import scipy.fft

from linpot import (
    Absorber,
    Free,
    GaussianSpec,
    Linear,
    PiecewiseLinear,
    Sampled,
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
from linpot.errors import BoundaryContaminationWarning, StabilityError
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


class TestSplitStep:
    def test_free_case_exact(self, grid, packet):
        # splitting is a single exponential when V = 0: any dt is exact
        cfg = SolverConfig(dt=0.05, n_steps=20, record_every=20)
        traj = split_step_evolve(packet, Free(), cfg)
        exact = free_evolve(packet, 1.0)
        assert l2_distance(traj.final_state, exact) < 1e-10

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

    def test_unitarity_long_run(self, grid, packet):
        cfg = SolverConfig(dt=1e-4, n_steps=10000, record_every=1000)
        traj = split_step_evolve(packet, Linear(0.5), cfg)
        assert np.max(np.abs(traj.norm2 - 1.0)) < 1e-10

    def test_snapshot_cadence(self, grid, packet):
        cfg = SolverConfig(dt=1e-3, n_steps=250, record_every=100)
        traj = split_step_evolve(packet, Free(), cfg)
        np.testing.assert_allclose(traj.times, [0.0, 0.1, 0.2, 0.25], atol=1e-12)

    def test_on_snapshot_gets_every_snapshot(self, grid, packet):
        cfg = SolverConfig(dt=1e-3, n_steps=200, record_every=100)
        seen = []
        traj = split_step_evolve(packet, Free(), cfg, on_snapshot=seen.append)
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
            split_step_evolve(bad, Free(), cfg, on_snapshot=seen.append)
        assert [s.time for s in seen] == [0.0]

    def test_non_finite_potential_raises(self, grid, packet):
        vals = np.zeros(grid.n)
        vals[5] = np.nan
        with pytest.raises(StabilityError):
            split_step_evolve(
                packet, Sampled(grid, vals), SolverConfig(dt=1e-3, n_steps=10)
            )

    def test_boundary_contamination_warns(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        psi = sample_gaussian(GaussianSpec(0.0, 8.0, 1.0), g)
        cfg = SolverConfig(dt=1e-3, n_steps=1800, record_every=300)
        with pytest.warns(BoundaryContaminationWarning):
            split_step_evolve(psi, Free(), cfg)

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


class TestAbsorber:
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
        traj = split_step_evolve(psi, Free(), cfg)
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
        traj = split_step_evolve(psi, Free(), cfg)
        final = traj.final_state
        reflected = 0.0
        if final.norm2() > 0:
            tilde = to_momentum_rep(final)
            reflected = float(
                np.sum(tilde.density()[tilde.p_axis < -0.05]) * tilde.dstep
            )
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
        prop = _Propagator(g, Linear(0.5), 5e-3, absorber)
        stack = np.array(rows)
        buffer = stack
        ledger = np.zeros((3, 2))
        # two calls: the ledger accumulates across them
        for k in (137, 163):
            stack = prop.advance(stack, k, ledger)
        assert np.shares_memory(stack, buffer)
        for i, amps in enumerate(rows):
            alone, own = amps.copy(), np.zeros(2)
            for k in (137, 163):
                alone = prop.advance(alone, k, own)
            np.testing.assert_array_equal(stack[i], alone)
            np.testing.assert_array_equal(ledger[i], own)
        if absorber is None:
            assert not ledger.any()
        else:
            # the first two packets run into opposite bands
            assert ledger[0, 1] > 0.1 and ledger[1, 0] > 0.1


def _scipy_fft_advance(prop, amps, k, ledger):
    """``_Propagator.advance`` as written on ``scipy.fft.fft/ifft(overwrite_x=
    True)``; the direct kernel calls must reproduce it bit for bit."""
    half, full, last, exp_k = prop.half, prop.full, prop.last, prop.exp_k
    absorbing, single = prop.absorbing, amps.ndim == 1
    if absorbing:
        n_left, w_left, start, w_right = prop.bands
        acc = ledger.reshape(-1, 2).tolist()
    amps *= half
    for j in range(k):
        amps = scipy.fft.fft(amps, overwrite_x=True)
        amps *= exp_k
        amps = scipy.fft.ifft(amps, overwrite_x=True)
        if absorbing:
            for row, a in zip((amps,) if single else amps, acc):
                u = row[:n_left].view(float)
                a[0] += np.dot(u * u, w_left)
                u = row[start:].view(float)
                a[1] += np.dot(u * u, w_right)
        amps *= last if j == k - 1 else full
    if absorbing:
        ledger[...] = np.reshape(acc, ledger.shape)
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
        "shape", [(), (1,), (3,)], ids=["state", "stack-of-1", "stack-of-3"]
    )
    def test_advance_equals_scipy_fft_loop(self, absorber, shape):
        g = SpatialGrid(-24.0, 24.0, 2048)
        starts = ((6.0, 8.0), (-6.0, -8.0), (0.0, 3.0))[: max(shape, default=1)]
        rows = [sample_gaussian(GaussianSpec(x0, p0, 1.0), g).amps for x0, p0 in starts]
        amps = np.array(rows).reshape(*shape, g.n)
        prop = _Propagator(g, Linear(0.5), 5e-3, absorber)
        ref, got = amps.copy(), amps.copy()
        ref_ledger, ledger = np.zeros((*shape, 2)), np.zeros((*shape, 2))
        for k in (137, 163):
            ref = _scipy_fft_advance(prop, ref, k, ref_ledger)
            got = prop.advance(got, k, ledger)
        np.testing.assert_array_equal(got, ref)
        np.testing.assert_array_equal(ledger, ref_ledger)
        assert prop.state_steps == 300 * len(rows)
        assert prop.transforms == 600
        if absorber is not None:
            # the first packet runs into the right band, the second the left
            per_row = ledger.reshape(-1, 2)
            assert per_row[0, 1] > 0.1
            assert len(rows) == 1 or per_row[1, 0] > 0.1


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
        ratio = study.errors[0] / study.errors[1]
        assert ratio == pytest.approx(4.0, rel=0.1)

    def test_roundoff_plateau_flagged(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), g)
        study = convergence_study(
            psi, Linear(1.0), total_time=0.01, dt_list=(1e-3, 1e-4, 1e-5, 4e-6)
        )
        assert study.non_monotone

    def test_requires_decreasing_dts(self, grid, packet):
        with pytest.raises(ValueError):
            convergence_study(packet, Free(), 0.1, (1e-3, 1e-3))


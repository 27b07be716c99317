import math
from types import SimpleNamespace

import numpy as np
import pytest

from linpot import (
    Absorber,
    BarrierSpec,
    GaussianSpec,
    Linear,
    PiecewiseLinear,
    SolverConfig,
    SpatialGrid,
    free_evolve,
    gaussian_width_at,
    l2_distance,
    linear_evolve,
    run_tunneling,
    sample_gaussian,
    spectral_shift,
    split_step_evolve,
    turning_points,
    width_scan,
    wkb_sigma_R,
    wkb_transmission,
)
from linpot import tunneling
from linpot.errors import (
    DegenerateEnergyError,
    NoTurningPointsError,
    PreconditionError,
    StationarityTimeout,
)
from linpot.tunneling import (
    ScanResult,
    animation_scenario,
    animation_surrogate,
    wkb_transmission_from_action,
)


def sigma_r_closed_form(barrier: BarrierSpec, energy: float) -> float:
    """Independent closed form for the triangle-barrier action integral:
    integrating sqrt(2m s (x_t - x)) over each flank gives
    (2/3) sqrt(2m) (V_peak - E)^{3/2} (1/s_up + 1/s_down) / hbar."""
    dv = barrier.peak_height - energy
    return (
        (2.0 / 3.0)
        * math.sqrt(2.0)
        * dv**1.5
        * (1.0 / barrier.slope + 1.0 / barrier.down_slope)
    )


def sigma_r_by_quadrature(xs, vs, energy: float) -> float:
    """Independent reference for the action of the polyline through (xs, vs):
    adaptive quadrature of sqrt(2 max(V - E, 0)) piece by piece, split at
    the turning points and at every knot between them."""
    from scipy.integrate import quad

    a, b = turning_points(PiecewiseLinear(tuple(zip(xs, vs))), energy)
    cuts = [a, *xs[(xs > a) & (xs < b)], b]

    def over(x):
        return math.sqrt(max(float(np.interp(x, xs, vs)) - energy, 0.0))

    total = sum(
        quad(over, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]
        for lo, hi in zip(cuts, cuts[1:])
    )
    return math.sqrt(2.0) * total


class TestBarrierSpec:
    def test_geometry(self):
        b = BarrierSpec(x_start=0.0, slope=2.0, peak_height=5.0)
        assert b.x_peak == 2.5
        assert b.x_end == 5.0
        assert turning_points(b, 3.0)[0] == pytest.approx(1.5)
        assert b.d_prime(3.0) == pytest.approx(1.0)

    def test_potential_profile(self):
        b = BarrierSpec(x_start=0.0, slope=2.0, peak_height=5.0, descent_slope=10.0)
        v = b.potential()
        assert v.evaluate(np.array([2.5]))[0] == pytest.approx(5.0)
        assert v.evaluate(np.array([3.0]))[0] == pytest.approx(0.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            BarrierSpec(0.0, -1.0, 5.0)
        with pytest.raises(ValueError):
            BarrierSpec(0.0, 1.0, 0.0)


class TestTurningPoints:
    @pytest.mark.parametrize(
        "knots",
        [
            ((0.0, 0.0), (np.nan, 1.0), (2.0, 0.0)),
            ((0.0, 0.0), (1.0, np.nan), (2.0, 0.0)),
            ((0.0, 0.0), (1.0, np.inf), (2.0, 0.0)),
            ((-np.inf, 0.0), (1.0, 1.0), (2.0, 0.0)),
        ],
        ids=["nan-position", "nan-value", "inf-value", "minus-inf-position"],
    )
    def test_non_finite_knot_is_refused(self, knots):
        # unrefused, these gave turning points (nan, nan) and T = 0.64, a
        # bare IndexError, an action of NaN, and a NaN turning point with an
        # action of 0.0
        with pytest.raises(ValueError, match="breakpoints must be finite"):
            PiecewiseLinear(knots)

    def test_symmetric_triangle(self):
        b = BarrierSpec(x_start=-2.5, slope=2.0, peak_height=5.0)
        a, bb = turning_points(b, 2.5)
        assert a + bb == pytest.approx(2.0 * b.x_peak, abs=1e-10)

    def test_linear_ramp(self):
        a, b = turning_points(Linear(2.0), 3.0)
        assert a == pytest.approx(1.5, rel=1e-12)
        assert math.isinf(b)

    def test_falling_ramp_is_forbidden_on_its_left(self):
        # V = -2x + 0.5 exceeds E = 1 for x < -0.25, not beyond it
        a, b = turning_points(Linear(-2.0, 0.5), 1.0)
        assert a == -math.inf and b == -0.25
        assert wkb_sigma_R(Linear(-2.0, 0.5), 1.0) == math.inf

    @pytest.mark.parametrize(
        "ramp, energy, want",
        [(Linear(2.0), -1.0, (-0.5, math.inf)), (Linear(-2.0, 0.5), 0.0, (-math.inf, 0.25))],
        ids=["rising", "falling"],
    )
    def test_ramp_crosses_energies_below_its_offset(self, ramp, energy, want):
        # Linear is v0*x + offset on the whole line: its offset is no floor
        assert turning_points(ramp, energy) == want
        assert wkb_sigma_R(ramp, energy) == math.inf

    def test_flat_ramp_has_no_turning_points(self):
        for call in (turning_points, wkb_sigma_R):
            with pytest.raises(NoTurningPointsError, match="flat"):
                call(Linear(0.0), 1.0)
            with pytest.raises(DegenerateEnergyError):
                call(Linear(0.0, 2.0), 1.0)

    @pytest.mark.parametrize("energy", [math.nan, math.inf, -math.inf])
    def test_energy_must_be_finite(self, energy):
        # a NaN energy would make a ramp's turning point NaN, so its WKB T 0,
        # and a barrier's root search fail with a bare IndexError
        for v in (Linear(2.0), BarrierSpec(0.0, 1.0, 2.0)):
            for call in (turning_points, wkb_transmission):
                with pytest.raises(DegenerateEnergyError, match=f"energy {energy!r} is not finite"):
                    call(v, energy)

    def test_ramp_slope_must_be_finite(self):
        # a NaN slope would give the turning points (-inf, nan)
        with pytest.raises(ValueError, match="v0 must be finite"):
            turning_points(Linear(math.nan), 1.0)

    def test_matches_analytic_inversion(self):
        b = BarrierSpec(x_start=1.0, slope=3.0, peak_height=7.0, descent_slope=5.0)
        for energy in (1.0, 3.5, 6.3):
            a, bb = turning_points(b, energy)
            a_exact = b.x_start + energy / b.slope
            b_exact = b.x_peak + (b.peak_height - energy) / b.down_slope
            assert a == pytest.approx(a_exact, rel=1e-12)
            assert bb == pytest.approx(b_exact, rel=1e-12)
            assert abs(b.potential().evaluate(np.array([a]))[0] - energy) <= 1e-12 * energy

    def test_roots_of_the_knot_polyline_are_exact(self):
        # tunnel.cfg's barrier at its packet energy: one interpolation per
        # flank lands on the closed-form roots to the last bit
        b = BarrierSpec(x_start=36.0, slope=8.0, peak_height=11.2)
        assert turning_points(b, 8.0) == (37.0, 37.8)
        for energy in (0.5, 3.0, 8.0, 11.2):
            assert b.d_prime(energy) == b.x_peak - turning_points(b, energy)[0]

    def test_energy_above_peak(self):
        b = BarrierSpec(0.0, 2.0, 5.0)
        with pytest.raises(NoTurningPointsError):
            turning_points(b, 6.0)

    def test_sampled_potential(self):
        b = BarrierSpec(x_start=1.0, slope=3.0, peak_height=7.0)
        g = SpatialGrid(-8.0, 8.0, 2048)
        sampled = PiecewiseLinear(zip(g.x, b.potential().evaluate(g.x)))
        a, bb = turning_points(sampled, 3.5)
        a_ref, b_ref = turning_points(b, 3.5)
        # the sampled profile is exact wherever the breakpoints land between
        # grid nodes is irrelevant (piecewise-linear through linear samples)
        assert a == pytest.approx(a_ref, abs=2 * g.dx)
        assert bb == pytest.approx(b_ref, abs=2 * g.dx)

    def test_energy_below_base(self):
        b = BarrierSpec(0.0, 2.0, 5.0)
        with pytest.raises(DegenerateEnergyError):
            turning_points(b, -1.0)
        # below the higher end one flank never comes down to E
        with pytest.raises(DegenerateEnergyError):
            turning_points(PiecewiseLinear(((0.0, 3.0), (1.0, 5.0), (2.0, 0.0))), 2.0)


class TestWkb:
    def test_anchor_at_peak(self):
        assert wkb_transmission_from_action(0.0) == 0.64
        b = BarrierSpec(0.0, 2.0, 5.0)
        assert wkb_transmission(b, 5.0) == 0.64

    @pytest.mark.parametrize("sigma_r", [np.nan, -1.0, -np.inf])
    def test_action_no_barrier_has_is_refused(self, sigma_r):
        # wkb_sigma_R returns an action >= 0 or +inf; -1.0 read T = 0.911 > 0.64
        with pytest.raises(ValueError, match="^sigma_r must be non-negative"):
            wkb_transmission_from_action(sigma_r)

    def test_large_action_asymptote(self):
        for s in (5.0, 10.0, 20.0):
            t = wkb_transmission_from_action(s)
            assert t == pytest.approx(math.exp(-2 * s), rel=1e-3)

    def test_action_matches_closed_form(self):
        cases = [
            (BarrierSpec(0.0, 2.0, 5.0), 3.0),
            (BarrierSpec(-1.0, 1.5, 8.0, descent_slope=4.0), 2.5),
            (BarrierSpec(2.0, 0.7, 3.0, descent_slope=2.1), 2.9),
        ]
        for barrier, energy in cases:
            action = wkb_sigma_R(barrier, energy)
            closed = sigma_r_closed_form(barrier, energy)
            assert action == pytest.approx(closed, rel=1e-8)

    @pytest.mark.parametrize("energy", [1.0, 3.0])
    def test_action_of_sampled_barrier(self, energy):
        g = SpatialGrid(-10.0, 10.0, 256)
        values = 5.0 * np.exp(-(g.x**2))
        barrier = PiecewiseLinear(zip(g.x, values))
        reference = sigma_r_by_quadrature(g.x, values, energy)
        assert wkb_sigma_R(barrier, energy) == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("energy", [0.5, 2.0, 4.9])
    def test_action_of_double_hump(self, energy):
        # at E = 2 the valley knot (2, 1) dips below E between a and b
        knots = ((0.0, 0.0), (1.0, 5.0), (2.0, 1.0), (3.0, 6.0), (4.0, 0.0))
        xs, vs = np.array(knots).T
        reference = sigma_r_by_quadrature(xs, vs, energy)
        action = wkb_sigma_R(PiecewiseLinear(knots), energy)
        assert action == pytest.approx(reference, rel=1e-10)

    @pytest.mark.parametrize("energy", [0.5, 2.0])
    def test_action_across_flat_valley(self, energy):
        # at E = 2 the flat valley between (2, 1) and (3, 1) lies below E
        knots = ((0.0, 0.0), (1.0, 5.0), (2.0, 1.0), (3.0, 1.0), (4.0, 6.0), (5.0, 0.0))
        xs, vs = np.array(knots).T
        reference = sigma_r_by_quadrature(xs, vs, energy)
        action = wkb_sigma_R(PiecewiseLinear(knots), energy)
        assert action == pytest.approx(reference, rel=1e-10)

    def test_action_of_sampled_double_barrier(self):
        # two square barriers with a zero gap: flat segments below E between a and b
        g = SpatialGrid(-10.0, 10.0, 256)
        values = 5.0 * ((np.abs(g.x - 2.0) < 1.0) | (np.abs(g.x + 2.0) < 1.0))
        reference = sigma_r_by_quadrature(g.x, values, 3.0)
        action = wkb_sigma_R(PiecewiseLinear(zip(g.x, values)), 3.0)
        assert action == pytest.approx(reference, rel=1e-10)

    def test_action_vanishes_continuously_at_peak(self):
        b = BarrierSpec(0.0, 2.0, 5.0)
        actions = [wkb_sigma_R(b, e) for e in (4.0, 4.9, 4.99, 4.9999)]
        assert all(x > y for x, y in zip(actions, actions[1:]))
        assert actions[-1] < 1e-5

    def test_ramp_never_transmits(self):
        assert wkb_transmission(Linear(1.0), 2.0) == 0.0


def _blocked_setup():
    grid = SpatialGrid(-80.0, 80.0, 2048)
    cfg = SolverConfig(
        dt=1e-3,
        n_steps=30000,
        absorber=Absorber(width_fraction=0.15, strength=12.0),
        record_every=250,
    )
    packet = GaussianSpec(x0=0.0, p0=10.0, sigma=1.0)
    barrier = BarrierSpec(x_start=10.0, slope=10.0, peak_height=280.0, descent_slope=100.0)
    return grid, cfg, packet, barrier


class TestRunTunneling:
    def test_requires_absorber(self, grid):
        cfg = SolverConfig(dt=1e-3, n_steps=100)
        with pytest.raises(PreconditionError, match="absorb"):
            run_tunneling(GaussianSpec(0, 4.0, 1.0), BarrierSpec(10.0, 8.0, 11.2), cfg, grid)

    def test_barrier_must_clear_absorber(self):
        g = SpatialGrid(-32.0, 32.0, 1024)
        cfg = SolverConfig(dt=1e-3, n_steps=100, absorber=Absorber(0.25, 5.0))
        with pytest.raises(PreconditionError, match="widen"):
            run_tunneling(GaussianSpec(0, 4.0, 1.0), BarrierSpec(14.0, 8.0, 80.0), cfg, g)

    def test_launch_state_must_be_a_position_state_on_the_grid(self):
        grid, cfg, packet, barrier = _blocked_setup()
        on_other_grid = sample_gaussian(packet, SpatialGrid(-64.0, 64.0, 2048))
        with pytest.raises(ValueError, match="state on the run's grid"):
            run_tunneling(packet, barrier, cfg, grid, initial_state=on_other_grid)

    def test_coverage_warning_points_at_the_caller(self):
        # the packet is sampled 7 sigma from the left edge, inside the left
        # absorbing band (inner edge -56), so the launch check refuses it
        grid, cfg, _, barrier = _blocked_setup()
        short = SolverConfig(
            dt=cfg.dt, n_steps=10, absorber=cfg.absorber, record_every=cfg.record_every
        )
        packet = GaussianSpec(x0=grid.x_min + 7.0, p0=10.0, sigma=1.0)
        with pytest.warns(UserWarning, match="7.00 sigma") as record:
            with pytest.raises(PreconditionError):
                run_tunneling(packet, barrier, short, grid)
        assert [w.filename for w in record] == [__file__]

    def test_launch_inside_an_absorbing_band_is_refused(self):
        # the left band starts at -38.4: a packet launched at -45 would be
        # absorbed on its way in and counted as reflected (T = 0.051 instead
        # of the 0.263 the same packet measures from -20)
        grid = SpatialGrid(-64.0, 64.0, 1024)
        cfg = SolverConfig(
            dt=2e-3, n_steps=40000, absorber=Absorber(0.2, 12.0), record_every=250
        )
        barrier = BarrierSpec(x_start=10.0, slope=8.0, peak_height=11.2)
        edges = r"x < -38\.4 or x > 38\.4\); launch it further in, or widen the grid"
        with pytest.raises(PreconditionError, match=edges):
            run_tunneling(GaussianSpec(-45.0, 4.0, 1.0), barrier, cfg, grid)
        res = run_tunneling(GaussianSpec(-20.0, 4.0, 1.0), barrier, cfg, grid)
        assert res.T == pytest.approx(0.263, abs=1e-3)

    def test_launch_on_the_barrier_is_refused(self):
        # the barrier starts at 10: from x0 = 10 half the packet starts on
        # the front and from 12 nearly all of it, and unchecked they measure
        # T = 0.496 and 0.984 against the 0.263 it measures from -20 (above)
        grid = SpatialGrid(-64.0, 64.0, 1024)
        cfg = SolverConfig(
            dt=2e-3, n_steps=40000, absorber=Absorber(0.2, 12.0), record_every=250
        )
        barrier = BarrierSpec(x_start=10.0, slope=8.0, peak_height=11.2)
        for x0, share in ((10.0, "5.35e-01"), (12.0, "9.98e-01")):
            message = share + r" of its norm at or beyond .* x_start = 10\.0; launch it further left"
            with pytest.raises(PreconditionError, match=message):
                run_tunneling(GaussianSpec(x0, 4.0, 1.0), barrier, cfg, grid)

    def test_timeout_carries_partial_result(self):
        grid, cfg, packet, barrier = _blocked_setup()
        short = SolverConfig(
            dt=cfg.dt, n_steps=3000, absorber=cfg.absorber, record_every=cfg.record_every
        )
        with pytest.raises(StationarityTimeout) as exc_info:
            run_tunneling(packet, barrier, short, grid)
        partial = exc_info.value.partial_result
        assert partial is not None
        assert partial.t_measure == pytest.approx(3.0, rel=1e-12)

    def test_blocked_regime(self):
        # D' >> sigma(t_a): classically forbidden, everything reflects
        grid, cfg, packet, barrier = _blocked_setup()
        res = run_tunneling(packet, barrier, cfg, grid)
        energy = packet.p0**2 / 2
        assert barrier.d_prime(energy) >= 10 * res.sigma_at_arrival
        assert res.T < 1e-4
        assert res.R == pytest.approx(1.0, abs=1e-6)
        assert res.norm_defect() < 1e-6
        # the linear-front arrival-time prediction holds to 2 percent
        assert res.t_a_measured == pytest.approx(res.t_a_linear, rel=0.02)

    def test_over_barrier(self):
        grid, cfg, packet, _ = _blocked_setup()
        low = BarrierSpec(x_start=10.0, slope=25.0, peak_height=25.0)
        res = run_tunneling(packet, low, cfg, grid)
        assert res.T > 0.99
        assert res.norm_defect() < 1e-6

    def test_classical_limit_on_the_front(self):
        # launched on the linear front, the packet cannot tell the barrier
        # from a pure linear potential until it nears the peak region
        grid = SpatialGrid(-32.0, 32.0, 2048)
        slope = 10.0
        front = PiecewiseLinear(((-12.0, 0.0), (14.0, 260.0), (40.0, 0.0)))
        psi = sample_gaussian(GaussianSpec(0.0, 10.0, 1.0), grid)
        t_final = 0.9  # 0.9 * t_a with t_a = p0/slope = 1
        n_steps = 9000
        cfg = SolverConfig(dt=t_final / n_steps, n_steps=n_steps, record_every=n_steps)
        numeric = split_step_evolve(psi, front, cfg).final_state
        exact = linear_evolve(psi, slope, t_final, offset=slope * 12.0).psi
        assert l2_distance(numeric, exact) < 1e-6


def _scan_setup():
    grid = SpatialGrid(-128.0, 128.0, 2048)
    cfg = SolverConfig(
        dt=2e-3,
        n_steps=40000,
        absorber=Absorber(width_fraction=0.2, strength=12.0),
        record_every=250,
    )
    barrier = BarrierSpec(x_start=36.0, slope=8.0, peak_height=11.2)
    return grid, cfg, barrier


def _delayed(grid, base, delay):
    """The state the scan launches for ``delay``: free-evolved, then
    translated back to the launch point."""
    psi = sample_gaussian(base, grid)
    if delay:
        psi = spectral_shift(free_evolve(psi, delay), base.p0 * delay)
    return psi


@pytest.fixture(scope="module")
def run_alone():
    """run_tunneling of the sigma = 1 packet on the width-scan setup, by
    itself: sampled directly (delay 0) and launched after a delay of 7."""
    grid, cfg, barrier = _scan_setup()
    base = GaussianSpec(x0=0.0, p0=4.0, sigma=1.0)
    return {
        0.0: run_tunneling(base, barrier, cfg, grid),
        7.0: run_tunneling(
            base, barrier, cfg, grid, initial_state=_delayed(grid, base, 7.0)
        ),
    }


class TestWidthScan:
    def test_trajectory_runs_on_one_clock(self, run_alone):
        # the delayed state carries time 7.0; its run counts from launch
        traj = run_alone[7.0].trajectory
        assert traj.times[-1] == traj.final_state.time
        assert traj.times[0] == 0.0

    def test_zero_delay_equals_direct_run(self, run_alone):
        grid, cfg, barrier = _scan_setup()
        base = GaussianSpec(x0=0.0, p0=4.0, sigma=1.0)
        direct = run_alone[0.0]
        scan = width_scan(
            4.0, barrier, grid, cfg, base_packet=base, delay_list=(0.0,)
        )
        assert scan.rows[0].T == direct.T
        assert scan.rows[0].sigma_at_arrival == direct.sigma_at_arrival

    @staticmethod
    def _row(res):
        """The seven values a scan row reports, sigma at arrival first."""
        return (
            res.sigma_at_arrival,
            res.T,
            res.R,
            res.residual,
            res.t_measure,
            res.absorbed_left,
            res.absorbed_right,
        )

    def _table(self, runs):
        """The rows' values sorted as the scan sorts them: stably, by sigma."""
        return sorted(map(self._row, runs), key=lambda row: row[0])

    def test_delay_scan_equals_one_run_per_entry(self, run_alone):
        # the scan steps its entries as one stack; each row must be exactly
        # what a run of that entry on its own gives
        grid, cfg, barrier = _scan_setup()
        base = GaussianSpec(x0=0.0, p0=4.0, sigma=1.0)
        delays = (0.0, 7.0)
        scan = width_scan(4.0, barrier, grid, cfg, base_packet=base, delay_list=delays)
        runs = [run_alone[d] for d in delays]
        # the entries become stationary at different strides (about 15 250
        # and 19 750 steps), so one leaves the stack while the other steps on
        assert runs[0].t_measure < runs[1].t_measure
        assert list(map(self._row, scan.rows)) == self._table(runs)
        # each row steps as often in the stack as alone; the stack makes the
        # step transforms of its longest-lived row and every row's snapshot
        # transform
        steps = [r.trajectory.state_steps for r in runs]
        snapshots = [len(r.trajectory.times) for r in runs]
        assert scan.state_steps == sum(steps)
        assert scan.transforms == 2 * max(steps) + sum(snapshots)
        assert runs[1].trajectory.transforms == 2 * steps[1] + snapshots[1]

    def test_sigma_scan_equals_one_run_per_entry(self, run_alone, kernel_calls):
        grid, cfg, barrier = _scan_setup()
        sigmas = (1.0, 2.5)
        scan = width_scan(4.0, barrier, grid, cfg, sigma_list=sigmas)
        assert scan.transforms == kernel_calls["n"]
        # sigma = 1 is the delay-0 packet
        runs = [run_alone[0.0]] + [
            run_tunneling(GaussianSpec(0.0, 4.0, s), barrier, cfg, grid) for s in sigmas[1:]
        ]
        assert runs[0].t_measure != runs[1].t_measure
        assert list(map(self._row, scan.rows)) == self._table(runs)

    @pytest.mark.parametrize(
        "delays, n_steps",
        [((0.0, 7.0), 17000), ((7.0, 0.0), 2000), ((7.0, 0.0), 2100)],
        ids=["second-entry-drifts", "both-drift", "budget-ends-mid-stride"],
    )
    def test_timeout_names_first_drifting_entry(self, delays, n_steps):
        # 17 000 steps: delay 0 is stationary after about 15 250 and leaves
        # the stack, delay 7 is not; 2 000 steps: neither is, and the first
        # in input order is reported; 2 100 steps: the last stride is cut to
        # the 100 steps left, so the run stops at the budget, not past it
        grid, cfg, barrier = _scan_setup()
        base = GaussianSpec(x0=0.0, p0=4.0, sigma=1.0)
        short = SolverConfig(
            dt=cfg.dt, n_steps=n_steps, absorber=cfg.absorber, record_every=cfg.record_every
        )
        with pytest.raises(StationarityTimeout) as scanned:
            width_scan(4.0, barrier, grid, short, base_packet=base, delay_list=delays)
        with pytest.raises(StationarityTimeout) as alone:
            psi = _delayed(grid, base, 7.0)
            run_tunneling(base, barrier, short, grid, initial_state=psi)
        got, want = scanned.value.partial_result, alone.value.partial_result
        assert str(scanned.value) == str(alone.value)
        assert got.t_measure == n_steps * cfg.dt
        assert self._row(got) == self._row(want)
        assert (got.absorbed_left, got.absorbed_right) == (
            want.absorbed_left,
            want.absorbed_right,
        )
        for name in ("times", "mean_x", "mean_p", "width", "norm2", "absorbed_right"):
            np.testing.assert_array_equal(
                getattr(got.trajectory, name), getattr(want.trajectory, name)
            )
        np.testing.assert_array_equal(
            got.trajectory.final_state.amps, want.trajectory.final_state.amps
        )
        assert got.trajectory.final_state.time == want.trajectory.final_state.time

    def test_row_equals_split_step_evolve(self, run_alone):
        # one stride loop drives both: a run_tunneling row is the trajectory
        # split_step_evolve gives for the same state, cfg and step count
        grid, cfg, barrier = _scan_setup()
        res = run_alone[0.0]
        steps = res.trajectory.state_steps
        same = SolverConfig(
            dt=cfg.dt, n_steps=steps, absorber=cfg.absorber, record_every=cfg.record_every
        )
        psi = sample_gaussian(GaussianSpec(x0=0.0, p0=4.0, sigma=1.0), grid)
        alone = split_step_evolve(psi, barrier.potential(), same)
        for name in (
            "times",
            "mean_x",
            "mean_p",
            "width",
            "norm2",
            "absorbed_left",
            "absorbed_right",
        ):
            np.testing.assert_array_equal(
                getattr(res.trajectory, name), getattr(alone, name), err_msg=name
            )
        np.testing.assert_array_equal(
            res.trajectory.final_state.amps, alone.final_state.amps
        )
        assert res.t_measure == alone.final_state.time == steps * cfg.dt

    def test_requires_exactly_one_list(self):
        grid, cfg, barrier = _scan_setup()
        with pytest.raises(ValueError):
            width_scan(4.0, barrier, grid, cfg)
        with pytest.raises(ValueError):
            width_scan(4.0, barrier, grid, cfg, sigma_list=(1,), delay_list=(0,))

    @pytest.mark.parametrize(
        "entries", [{"delay_list": ()}, {"sigma_list": []}], ids=["delays", "sigmas"]
    )
    def test_empty_list_is_a_value_error(self, entries):
        # an empty list used to reach the stride loop and fail there with a
        # bare IndexError
        grid, cfg, barrier = _scan_setup()
        with pytest.raises(ValueError, match="non-empty"):
            width_scan(4.0, barrier, grid, cfg, **entries)

    @pytest.mark.parametrize("delay", [np.nan, -np.inf])
    def test_non_finite_delay_is_refused_by_name(self, delay, monkeypatch):
        # free_evolve refused it as "dt must be finite", a name the caller
        # never passed; now no state is built before the delays are checked
        grid, cfg, barrier = _scan_setup()

        def no_state(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(tunneling, "sample_gaussian", no_state)
        with pytest.raises(ValueError, match="^delay must be finite"):
            width_scan(4.0, barrier, grid, cfg, delay_list=(0.0, delay))

    def test_base_packet_of_another_momentum_is_refused(self, monkeypatch):
        # it was rebuilt with p0, so the scan ran a packet the caller never gave
        grid, cfg, barrier = _scan_setup()
        base = GaussianSpec(x0=0.0, p0=3.0, sigma=1.0)

        def no_state(*args):
            raise AssertionError("a state was built")

        monkeypatch.setattr(tunneling, "sample_gaussian", no_state)
        with pytest.raises(ValueError, match=r"^base_packet momentum 3\.0 is not p0 4\.0$"):
            width_scan(4.0, barrier, grid, cfg, base_packet=base, delay_list=(0.0,))

    def test_violations_reported_not_suppressed(self):
        # stand-in rows: the check reads only sigma at arrival and T
        rows = tuple(
            SimpleNamespace(sigma_at_arrival=sigma, T=T)
            for sigma, T in ((1.0, 0.10), (2.0, 0.05), (3.0, 0.20))
        )
        scan = ScanResult(rows)
        violations = scan.monotonicity_violations()
        assert len(violations) == 1
        assert violations[0][0].sigma_at_arrival == 1.0
        assert scan.monotonicity_violations(slack=0.1) == []

    def test_trajectory_carries_ledger_and_momentum(self):
        grid, cfg, packet, _ = _blocked_setup()
        low = BarrierSpec(x_start=10.0, slope=25.0, peak_height=25.0)
        res = run_tunneling(packet, low, cfg, grid)
        traj = res.trajectory
        # the absorber ledger and <p> columns are filled, not NaN
        assert traj.absorbed_left[0] == 0.0 and traj.absorbed_right[0] == 0.0
        assert traj.absorbed_left[-1] == res.absorbed_left
        assert traj.absorbed_right[-1] == res.absorbed_right
        assert np.all(np.isfinite(traj.mean_p))
        assert traj.mean_p[0] == pytest.approx(packet.p0, rel=1e-10)
        width_at = np.interp(res.t_a_measured, traj.times, traj.width)
        assert width_at == res.sigma_at_arrival


class TestAnimationScenario:
    def test_back_solved_mass(self):
        sc = animation_scenario()
        assert sc.mass == pytest.approx(3.45e-29, rel=2e-3)
        assert sc.t_a == pytest.approx(0.6, rel=1e-12)
        assert sc.v0 == pytest.approx(sc.p0 / 0.6, rel=1e-12)

    def test_width_growth_is_ten_percent(self):
        sc = animation_scenario()
        assert sc.predicted_width_ratio == pytest.approx(1.10, rel=1e-6)
        # same number through the generic width law
        from linpot import si_units

        units = si_units(sc.mass)
        assert gaussian_width_at(sc.sigma, sc.t_a, units) / sc.sigma == pytest.approx(
            1.10, rel=1e-6
        )

    def test_surrogate_measures_the_claims(self):
        res = animation_surrogate(n=4096, semiclassical_ratio=120.0)
        assert res.crossing_time_relative_error < 0.02
        assert res.width_ratio_measured == pytest.approx(1.10, rel=5e-3)
        assert res.t_a_si == pytest.approx(0.6, rel=1e-12)
        assert res.t_a_measured_si == pytest.approx(0.6, rel=0.02)

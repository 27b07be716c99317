import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from linpot import (
    NATURAL,
    GaussianSpec,
    Linear,
    SpatialGrid,
    free_evolve,
    gaussian_width_at,
    l2_distance,
    linear_evolve,
    mean_momentum,
    mean_position,
    plane_wave_phase,
    sample_gaussian,
    spatial_width,
    si_units,
    spectral_shift,
    to_momentum_rep,
)
import linpot.analytic as analytic
from linpot.analytic import _gaussian_evolve
from linpot.errors import BoundaryContaminationWarning, CoverageError
from linpot.oracle import SolverConfig, split_step_evolve


class TestFreeEvolve:
    def test_zero_time_is_identity(self, packet):
        out = free_evolve(packet, 0.0)
        assert l2_distance(packet, out) < 1e-15

    def test_mean_advances(self, grid):
        psi = sample_gaussian(GaussianSpec(0.0, 3.0, 1.0), grid)
        out = free_evolve(psi, 1.5)
        assert mean_position(out) == pytest.approx(4.5, abs=1e-10)
        assert mean_momentum(out) == pytest.approx(3.0, abs=1e-10)

    def test_width_law_against_solver(self, grid):
        # independent oracle: the split-step run (exact for V=0) measures the
        # same width the closed form predicts
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
        dt_total = 1.0
        out = free_evolve(psi, dt_total)
        assert spatial_width(out) == pytest.approx(np.sqrt(2.0), rel=1e-12)
        assert gaussian_width_at(1.0, dt_total) == pytest.approx(np.sqrt(2.0), rel=1e-15)
        cfg = SolverConfig(dt=1e-3, n_steps=1000, record_every=1000)
        traj = split_step_evolve(psi, Linear(0.0), cfg)
        assert l2_distance(out, traj.final_state) < 1e-10
        assert traj.width[-1] == pytest.approx(np.sqrt(2.0), rel=1e-10)

    def test_negative_time_inverts(self, packet):
        out = free_evolve(free_evolve(packet, 0.7), -0.7)
        assert l2_distance(packet, out) < 1e-13

    def test_boundary_contamination_warns(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        psi = sample_gaussian(GaussianSpec(0.0, 8.0, 1.0), g)
        with pytest.warns(BoundaryContaminationWarning):
            free_evolve(psi, 1.6)


class TestSpectralShift:
    def test_matches_roll_on_grid_multiple(self, grid):
        psi = sample_gaussian(GaussianSpec(0.0, 1.0, 1.0), grid)
        shifted = spectral_shift(psi, 4 * grid.dx)
        np.testing.assert_allclose(shifted.amps, np.roll(psi.amps, -4), atol=1e-12)

    def test_inverse(self, packet):
        out = spectral_shift(spectral_shift(packet, 1.234), -1.234)
        assert l2_distance(packet, out) < 1e-13


class TestLinearEvolve:
    def test_boundary_warning_points_at_the_caller(self):
        # the free flight reaches the edge band; the guards are not under test
        g = SpatialGrid(-16.0, 16.0, 512)
        psi = sample_gaussian(GaussianSpec(0.0, 8.0, 1.0), g)
        for ordering in ("left", "right"):
            with pytest.warns(BoundaryContaminationWarning) as record:
                linear_evolve(psi, 0.5, 1.6, ordering, check_coverage=False)
            assert [w.filename for w in record] == [__file__], ordering

    def test_zero_slope_equals_free(self, packet):
        res = linear_evolve(packet, 0.0, 0.8)
        free = free_evolve(packet, 0.8)
        assert l2_distance(res.psi, free) == 0.0
        led = res.ledger
        assert (
            led.cubic_phase
            == led.potential_phase_coeff
            == led.momentum_shift_phase_coeff
            == led.argument_shift
            == led.momentum_kick
            == 0.0
        )

    def test_ehrenfest_means(self, grid):
        x0, p0, v0, dt = -2.0, 3.0, 1.5, 0.6
        psi = sample_gaussian(GaussianSpec(x0, p0, 1.0), grid)
        res = linear_evolve(psi, v0, dt)
        assert mean_position(res.psi) == pytest.approx(
            x0 + p0 * dt - v0 * dt**2 / 2, rel=1e-10
        )
        assert mean_momentum(res.psi) == pytest.approx(p0 - v0 * dt, rel=1e-10)

    def test_ledger_values(self, packet):
        v0, dt = 1.5, 0.5
        left = linear_evolve(packet, v0, dt, ordering="left").ledger
        assert left.cubic_phase == pytest.approx(-(v0**2) * dt**3 / 6.0, rel=1e-15)
        assert left.potential_phase_coeff == pytest.approx(-v0 * dt, rel=1e-15)
        assert left.momentum_shift_phase_coeff == pytest.approx(v0 * dt**2 / 2, rel=1e-15)
        assert left.argument_shift == pytest.approx(v0 * dt**2 / 2, rel=1e-15)
        assert left.momentum_kick == pytest.approx(v0 * dt, rel=1e-15)
        right = linear_evolve(packet, v0, dt, ordering="right").ledger
        assert right.cubic_phase == pytest.approx(v0**2 * dt**3 / 3.0, rel=1e-15)
        assert right.momentum_shift_phase_coeff == pytest.approx(
            -v0 * dt**2 / 2, rel=1e-15
        )
        assert right.argument_shift == left.argument_shift
        assert right.momentum_kick == left.momentum_kick

    @given(
        v0=st.floats(-2.5, 2.5),
        dt=st.floats(0.05, 0.6),
        p0=st.floats(-3, 3),
    )
    @settings(max_examples=30, deadline=None)
    def test_ordering_equivalence(self, v0, dt, p0):
        g = SpatialGrid(-24.0, 24.0, 1024)
        psi = sample_gaussian(GaussianSpec(0.0, p0, 1.0), g)
        left = linear_evolve(psi, v0, dt, ordering="left").psi
        right = linear_evolve(psi, v0, dt, ordering="right").psi
        assert l2_distance(left, right) < 1e-12

    def test_group_property(self, packet):
        v0 = 1.2
        once = linear_evolve(packet, v0, 0.9).psi
        twice = linear_evolve(linear_evolve(packet, v0, 0.4).psi, v0, 0.5).psi
        assert l2_distance(once, twice) < 1e-11

    def test_inverse_evolution(self, packet):
        v0 = 1.2
        back = linear_evolve(linear_evolve(packet, v0, 0.5).psi, v0, -0.5).psi
        assert l2_distance(packet, back) < 1e-12

    def test_density_shift_law(self, grid):
        v0, dt = 1.7, 0.7
        psi = sample_gaussian(GaussianSpec(-1.0, 2.0, 0.9), grid)
        evolved = linear_evolve(psi, v0, dt).psi
        shifted_free = spectral_shift(free_evolve(psi, dt), v0 * dt**2 / 2)
        assert np.max(np.abs(evolved.density() - shifted_free.density())) < 1e-12

    def test_width_independent_of_slope(self, grid):
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
        widths = [
            spatial_width(linear_evolve(psi, v0, 0.4).psi)
            for v0 in (-10, -1, 0, 1, 10)
        ]
        assert max(widths) - min(widths) < 1e-10

    def test_unitarity(self, packet):
        res = linear_evolve(packet, 2.0, 0.7)
        assert abs(res.psi.norm2() - packet.norm2()) < 1e-12

    def test_shift_leaving_grid_raises(self):
        g = SpatialGrid(-16.0, 16.0, 512)
        psi = sample_gaussian(GaussianSpec(-8.0, 0.0, 1.0), g)
        with pytest.raises(CoverageError, match="wrap"):
            linear_evolve(psi, -40.0, 1.0)

    @pytest.mark.parametrize("ordering", ["left", "right"])
    def test_kick_leaving_momentum_grid_raises(self, ordering):
        # a kick of v0*dt = 30 on a grid whose momenta end at +-25: the
        # argument shift (1.5) stays on the grid, but unchecked the kick
        # aliases the packet to <p> = +20.27 instead of -30
        g = SpatialGrid(-16.0, 16.0, 256)
        spec = GaussianSpec(0.0, 0.0, 1.0)
        psi = sample_gaussian(spec, g)
        # the advice is a finer dx, not a wider span: the kicked packet's
        # tail reaches p = -34.5, and an axis of +-pi/dx reaches it at dx = 0.091
        advice = r"dx <= 0\.09102 \(n >= 512 on this span\) makes room for it$"
        with pytest.raises(CoverageError, match="momentum kick 30.0 .* momentum-grid.*" + advice):
            linear_evolve(psi, 300.0, 0.1, ordering=ordering)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryContaminationWarning)
            res = linear_evolve(psi, 300.0, 0.1, ordering, check_coverage=False)
        assert mean_momentum(res.psi) == pytest.approx(20.27, abs=0.01)
        # taken, the advice holds the kick
        fine = sample_gaussian(spec, SpatialGrid(-16.0, 16.0, 512))
        res = linear_evolve(fine, 300.0, 0.1, ordering=ordering)
        assert mean_momentum(res.psi) == pytest.approx(-30.0, abs=1e-9)

    def test_kick_wider_than_half_the_momentum_axis_raises(self):
        # p0 = 4 sits on the upper half of the +-25 momentum axis, which a
        # strip clipped at half the axis never reaches; unchecked the kick
        # of 30 aliases the packet to <p> = +23.6 instead of -26
        g = SpatialGrid(-16.0, 16.0, 256)
        psi = sample_gaussian(GaussianSpec(0.0, 4.0, 2.0), g)
        with pytest.raises(CoverageError, match="momentum kick 30.0"):
            linear_evolve(psi, 300.0, 0.1)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryContaminationWarning)
            res = linear_evolve(psi, 300.0, 0.1, check_coverage=False)
        assert mean_momentum(res.psi) == pytest.approx(23.57, abs=0.01)

    def test_constant_offset_is_global_phase(self, packet):
        v0, dt, c = 1.1, 0.4, 2.7
        plain = linear_evolve(packet, v0, dt).psi
        offset = linear_evolve(packet, v0, dt, offset=c).psi
        np.testing.assert_allclose(
            offset.amps, plain.amps * np.exp(-1j * c * dt), atol=1e-14
        )


SI = si_units(9.1e-31)
SI_GRID = SpatialGrid(-2e-6, 2e-6, 1024)


GAUSSIAN_CASES = pytest.mark.parametrize(
    "spec, v0, times, units",
    [
        (GaussianSpec(-2.0, 3.0, 1.0), 1.5, (0.05, 0.3, 0.9, 1.6), NATURAL),
        (GaussianSpec(-2.0, 3.0, 1.0), -1.5, (-0.05, -0.3, -0.9, -1.6), NATURAL),
        (GaussianSpec(1.0, -2.0, 0.8), 0.0, (0.05, 0.3, 0.9, 1.6), NATURAL),
        (GaussianSpec(0.0, 1e-28, 1e-7), 4e-17, (1e-11, 3e-11, 6e-11), SI),
    ],
    ids=["t-positive", "t-negative", "v0-zero", "si"],
)


EPS = np.finfo(float).eps


def full_grid_gaussian(spec, grid, v0, t, units):
    """``_gaussian_evolve``'s exponent and ``exp`` over every grid point,
    in the same sequence of operations, with no cutoff; and the packet's
    centre, peak modulus and reach, the distance from the centre beyond
    which |psi| < eps^2 * peak, each from its own formula."""
    hbar, m, sigma = units.hbar, units.mass, spec.sigma
    ledger = analytic._ledger(v0, t, units, "left")
    c = ledger.potential_phase_coeff
    centre = spec.x0 + spec.p0 * t / m - ledger.argument_shift
    d = complex(1.0, hbar * t / (m * sigma**2))
    phase = spec.p0**2 * t / (2.0 * m * hbar) + c * centre + ledger.cubic_phase
    log_norm = -0.25 * math.log(math.pi) - 0.5 * math.log(sigma)
    const = complex(log_norm, phase) - 0.5 * cmath.log(d)
    w = grid.x - centre
    exponent = (-0.5 / (sigma**2 * d)) * w
    exponent += 1j * (spec.p0 / hbar + c)
    exponent *= w
    exponent += const
    # |psi| = peak * exp(-w^2 / (2 sigma^2 |d|^2))
    peak = math.pi**-0.25 * sigma**-0.5 * abs(d) ** -0.5
    reach = 2.0 * sigma * abs(d) * math.sqrt(-math.log(EPS))
    return np.exp(exponent), centre, peak, reach


def assert_cut_of_full_grid(spec, grid, v0, t, units):
    """``_gaussian_evolve`` equals the full-grid evaluation bit for bit
    within ``reach`` of the centre and is exactly 0 beyond it, where the
    full value is below eps^2 * peak.  A point within 1e-9 relative of
    ``reach`` may be either.  Returns the number of points cut."""
    got = _gaussian_evolve(spec, grid, v0, t, units).amps
    full, centre, peak, reach = full_grid_gaussian(spec, grid, v0, t, units)
    dist = np.abs(grid.x - centre)
    inside, outside = dist < reach * (1 - 1e-9), dist > reach * (1 + 1e-9)
    # (re, im) bits of each point
    same = (got.view(np.int64) == full.view(np.int64)).reshape(-1, 2).all(axis=1)
    assert np.all(same[inside])
    assert np.all(got[outside] == 0.0)
    assert np.all(np.abs(full[outside]) < EPS**2 * peak)
    edge = ~(inside | outside)
    assert np.all(same[edge] | (got[edge] == 0.0))
    return int(np.count_nonzero(got == 0.0))


class TestGaussianEvolve:
    """``_gaussian_evolve``, the pointwise closed form behind ``linpot
    evolve``'s l2_vs_analytic column, against the FFT closed form, the
    sampled packet, the free-spreading density law and its own full-grid
    evaluation."""

    @GAUSSIAN_CASES
    def test_equals_linear_evolve(self, grid, spec, v0, times, units):
        g = SI_GRID if units is SI else grid
        psi = sample_gaussian(spec, g, units)
        for t in times:
            want = linear_evolve(psi, v0, t, units=units).psi
            got = _gaussian_evolve(spec, g, v0, t, units)
            assert got.time == want.time
            assert l2_distance(got, want) < 1e-13

    @GAUSSIAN_CASES
    def test_zero_time_is_the_sampled_packet(self, grid, spec, v0, times, units):
        g = SI_GRID if units is SI else grid
        psi = sample_gaussian(spec, g, units)
        for t in (0.0, 1e-300, -1e-300):
            assert l2_distance(_gaussian_evolve(spec, g, v0, t, units), psi) < 1e-15

    def test_no_transform_no_table_no_guard(self, monkeypatch):
        # a packet that falls off the grid (centre -48 on +-32) is sampled
        # as it is: every FFT-side helper refuses, and nothing warns
        def refuse(*args, **kwargs):
            raise AssertionError("the pointwise closed form called an FFT helper or a guard")

        helpers = ("_fft", "_ifft", "_kinetic", "_shift_table")
        guards = ("_band_share", "_check_wrap", "_check_kick")
        for name in helpers + guards:
            monkeypatch.setattr(analytic, name, refuse)
        g = SpatialGrid(-32.0, 32.0, 1024)
        t = 8.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            psi = _gaussian_evolve(GaussianSpec(0.0, 0.0, 1.0), g, 1.5, t)
        # |psi|^2 is the spread Gaussian around x = -V0 t^2/2m, pointwise
        width = np.sqrt(1.0 + t**2)
        density = np.exp(-(((g.x + 48.0) / width) ** 2)) / (np.sqrt(np.pi) * width)
        np.testing.assert_allclose(psi.density(), density, rtol=1e-12)

    @GAUSSIAN_CASES
    def test_cut_of_the_full_grid_evaluation(self, grid, spec, v0, times, units):
        # reach is about 12 sigma |d|: every case here, the SI one
        # included, has points beyond it at every time
        g = SI_GRID if units is SI else grid
        for t in (0.0, *times):
            assert assert_cut_of_full_grid(spec, g, v0, t, units) > 0

    def test_packet_wider_than_the_grid_has_no_zeros(self):
        # sigma = 4 on +-8: reach (about 48) covers the grid at every t
        g = SpatialGrid(-8.0, 8.0, 256)
        for t in (0.0, 0.7, -2.5):
            spec = GaussianSpec(0.5, 1.0, 4.0)
            assert assert_cut_of_full_grid(spec, g, 0.8, t, NATURAL) == 0

    @pytest.mark.parametrize(
        "x0, t, inside",
        [(-40.0, 0.5, True), (-40.0, 0.0, True), (100.0, 1.0, False)],
        ids=["past-the-left-edge", "past-the-left-edge-at-0", "far-right-of-the-grid"],
    )
    def test_packet_centred_off_the_grid(self, grid, x0, t, inside):
        # centre off the grid: only the points within reach of it, if any,
        # are evaluated; far away, every point is 0
        spec = GaussianSpec(x0, 0.0, 1.0)
        cut = assert_cut_of_full_grid(spec, grid, 0.0, t, NATURAL)
        assert 0 < cut < grid.n if inside else cut == grid.n


class TestMomentumRepresentation:
    def test_density_kick_law(self, packet):
        # packet is Gaussian(x0=-2, p0=3, sigma=1): its momentum density has
        # the closed form pi^(-1/2) exp(-(p-3)^2), so |psi~(p,t)|^2 must equal
        # that form evaluated at p + v0*dt, pointwise
        v0, dt = 1.3, 0.6
        p, amps = to_momentum_rep(linear_evolve(packet, v0, dt).psi)
        expected = np.pi**-0.5 * np.exp(-((p + v0 * dt) - 3.0) ** 2)
        np.testing.assert_allclose(np.abs(amps) ** 2, expected, atol=1e-12)


class TestPlaneWavePhase:
    def test_zero_slope_free_phase_only(self):
        part = plane_wave_phase(2.0, 0.0, 0.5)
        assert part.cubic == 0.0
        assert part.p_linear == 0.0
        assert part.kicked_momentum == 2.0
        assert part.total == pytest.approx(-(2.0**2) * 0.5 / 2.0, rel=1e-15)

    def test_cubic_part_unit_values(self):
        part = plane_wave_phase(0.0, 1.0, 1.0)
        assert part.cubic == pytest.approx(1.0 / 3.0, rel=1e-15)

    @given(
        p=st.floats(-3, 3), v0=st.floats(-2, 2), dt=st.floats(0.05, 1.0)
    )
    @settings(max_examples=50, deadline=None)
    def test_orderings_share_one_total(self, p, v0, dt):
        part = plane_wave_phase(p, v0, dt)
        left_total = (
            -(v0**2) * dt**3 / 6.0 + v0 * p * dt**2 / 2.0 - p**2 * dt / 2.0
        )
        assert part.total == pytest.approx(left_total, rel=1e-12, abs=1e-12)

    def test_matches_evolved_plane_wave(self):
        # numeric oracle: evolve an exact single-bin plane wave and read the
        # factor off directly; kick chosen as an integer number of bins.  A
        # plane wave is periodic, so the wraparound guard is switched off.
        import warnings

        g = SpatialGrid(-16.0, 16.0, 512)
        k0 = 16 * g.dk
        psi_amps = np.exp(1j * k0 * g.x) / np.sqrt(g.span)
        from linpot import WaveFunction

        psi = WaveFunction(g, psi_amps)
        dt = 1.0
        kick_bins = 8
        v0 = kick_bins * g.dk / dt
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryContaminationWarning)
            res = linear_evolve(psi, v0, dt, check_coverage=False)
        k1 = k0 - kick_bins * g.dk
        expected = np.exp(1j * k1 * g.x) / np.sqrt(g.span)
        ratio = res.psi.amps / expected
        np.testing.assert_allclose(ratio, ratio[0], atol=1e-10)
        part = plane_wave_phase(k0, v0, dt)
        assert part.kicked_momentum == pytest.approx(k1, rel=1e-12)
        assert np.angle(ratio[0] / np.exp(1j * part.total)) == pytest.approx(
            0.0, abs=1e-10
        )

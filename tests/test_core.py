import dataclasses
import warnings

import numpy as np
import pytest
import scipy.fft
from hypothesis import given, settings
from hypothesis import strategies as st

from linpot import (
    NATURAL,
    GaussianSpec,
    Linear,
    PiecewiseLinear,
    SpatialGrid,
    UnitSystem,
    WaveFunction,
    gaussian_width_at,
    l2_distance,
    mean_momentum,
    mean_position,
    sample_gaussian,
    si_units,
    spatial_width,
    to_momentum_rep,
    to_position_rep,
)
from linpot.analytic import free_evolve, linear_evolve
from linpot.core import _fft, _ifft, _load_pocketfft
from linpot.errors import BoundaryContaminationWarning, CoverageError, NormalizationError
from linpot.tunneling import animation_scenario

from conftest import direct_dft


def momentum_norm2(p, amps):
    """Squared norm of ascending-p amplitudes, measured with dp."""
    return float(np.sum(np.abs(amps) ** 2) * (p[1] - p[0]))


class TestGrid:
    def test_rejects_non_power_of_two(self):
        with pytest.raises(ValueError):
            SpatialGrid(-1.0, 1.0, 1000)

    def test_rejects_tiny(self):
        with pytest.raises(ValueError):
            SpatialGrid(-1.0, 1.0, 8)

    @pytest.mark.parametrize("n", [16.0, 64.5, True])
    def test_rejects_n_that_is_not_a_whole_number(self, n):
        # a float n raised a bare TypeError from the bit test
        with pytest.raises(ValueError, match="^n must be a power of two >= 16"):
            SpatialGrid(-1.0, 1.0, n)

    def test_span_must_be_finite(self):
        # the span overflowed to inf, so dx was inf and x[0] NaN
        with pytest.raises(ValueError, match="^x_max - x_min must be finite"):
            SpatialGrid(-1e308, 1e308, 16)

    def test_numpy_integer_n_is_whole(self):
        assert SpatialGrid(-1.0, 1.0, np.int64(64)) == SpatialGrid(-1.0, 1.0, 64)

    def test_spacings(self):
        g = SpatialGrid(-16.0, 16.0, 1024)
        assert g.dx == 32.0 / 1024
        assert g.dk == pytest.approx(2 * np.pi / 32.0, rel=1e-15)
        assert len(g.x) == 1024
        assert g.x[0] == -16.0
        # right endpoint excluded (periodic grid)
        assert g.x[-1] == pytest.approx(16.0 - g.dx)

    def test_sorted_momenta_are_sorted_wraparound(self):
        g = SpatialGrid(-16.0, 16.0, 64)
        assert np.all(np.diff(g.k_sorted) > 0)
        assert set(g.k_sorted) == set(g.k_wrap)

    def test_immutability(self):
        g = SpatialGrid(-16.0, 16.0, 64)
        with pytest.raises(AttributeError):
            g.x_min = 0.0


def _unaligned(n):
    """n float64 values in a buffer one byte off alignment."""
    a = np.empty(8 * n + 1, np.uint8)[1:].view(np.float64)
    a[:] = np.linspace(0.0, 1.0, n)
    assert not a.flags.aligned
    return a


class TestWaveFunction:
    GRID = SpatialGrid(-8.0, 8.0, 16)

    def test_fields_are_grid_amps_time(self):
        names = [f.name for f in dataclasses.fields(WaveFunction)]
        assert names == ["grid", "amps", "time"]

    @staticmethod
    def _runs(psi):
        """free_evolve and linear_evolve of ``psi``, a state that fills the
        grid, so the edge warning and the wrap guards are set aside."""
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", BoundaryContaminationWarning)
            return (
                free_evolve(psi, 0.3).amps,
                linear_evolve(psi, 0.5, 0.3, check_coverage=False).psi.amps,
            )

    @pytest.mark.parametrize(
        "a",
        [
            [1, 2, 0, -1] * 4,
            np.arange(16),
            np.linspace(0.0, 1.0, 16),
            np.linspace(0.0, 1.0, 16, dtype=np.float16),
            np.linspace(0.0, 1.0, 16).astype(">f8"),
            _unaligned(16),
            (np.linspace(0.0, 1.0, 16) * (1.0 + 1.0j / 3.0)).astype(np.complex64),
        ],
        ids=["list", "int", "float", "float16", "big-endian", "unaligned", "complex64"],
    )
    def test_stores_one_complex128_row(self, a):
        # the transforms take the stored array as it is, so a complex64
        # state ran its first transform in single precision
        psi = WaveFunction(self.GRID, a)
        want = np.asarray(a, complex)
        assert psi.amps.dtype == np.complex128 and psi.amps.dtype.isnative
        assert psi.amps.flags.aligned and psi.amps.shape == (16,)
        np.testing.assert_array_equal(psi.amps, want)
        for got, same in zip(self._runs(psi), self._runs(WaveFunction(self.GRID, want))):
            np.testing.assert_array_equal(got, same)

    def test_keeps_a_complex128_array(self):
        a = np.linspace(0.0, 1.0, 16) * 1j
        assert WaveFunction(self.GRID, a).amps is a

    @pytest.mark.parametrize("shape", [(16, 2), (8,), (1, 16)])
    def test_refuses_any_other_shape(self, shape):
        # a (16, 2) array passed the length check and failed in free_evolve
        with pytest.raises(ValueError, match=r"^amplitudes must be a 1-D array of 16 points"):
            WaveFunction(self.GRID, np.ones(shape, complex))

    @pytest.mark.parametrize("time", [np.nan, np.inf])
    def test_non_finite_time_is_refused(self, time):
        # split_step_evolve of a NaN-stamped state returned all-NaN times
        with pytest.raises(ValueError, match="^time must be finite"):
            WaveFunction(self.GRID, np.ones(16, complex), time)


class TestGaussianSampling:
    def test_peak_amplitude_real(self):
        g = SpatialGrid(-16.0, 16.0, 1024)
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), g)
        i0 = np.argmin(np.abs(g.x))
        assert g.x[i0] == 0.0
        assert psi.amps[i0] == pytest.approx(np.pi ** -0.25, rel=1e-14)
        assert np.max(np.abs(psi.amps.imag)) == 0.0
        assert abs(psi.norm2() - 1.0) < 1e-10

    def test_momentum_boost_is_pure_phase(self):
        g = SpatialGrid(-16.0, 16.0, 1024)
        rest = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), g)
        boosted = sample_gaussian(GaussianSpec(0.0, 5.0, 1.0), g)
        np.testing.assert_allclose(np.abs(boosted.amps), np.abs(rest.amps), atol=1e-15)
        # unwrapped phase gradient equals p0/hbar in the packet's core
        core = np.abs(g.x) < 3.0
        phase = np.unwrap(np.angle(boosted.amps[core]))
        grad = np.gradient(phase, g.dx)
        np.testing.assert_allclose(grad, 5.0, atol=1e-8)

    def test_si_animation_initial_state(self):
        sc = animation_scenario()
        units = si_units(sc.mass)
        g = SpatialGrid(-8 * sc.sigma, 8 * sc.sigma, 8192)
        psi = sample_gaussian(GaussianSpec(0.0, sc.p0, sc.sigma), g, units)
        assert abs(psi.norm2() - 1.0) < 1e-10
        assert mean_momentum(psi, units) == pytest.approx(sc.mass * 1.0, rel=1e-8)
        assert spatial_width(psi) == pytest.approx(0.002, rel=1e-8)

    def test_coverage_error_names_deficit(self):
        g = SpatialGrid(-4.0, 4.0, 64)
        with pytest.raises(CoverageError, match="sigma"):
            sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), g)

    def test_marginal_coverage_warns(self):
        g = SpatialGrid(-7.0, 7.0, 256)
        with pytest.warns(UserWarning, match="norm error"):
            sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), g)


class TestObservables:
    def test_gaussian_means(self, grid):
        psi = sample_gaussian(GaussianSpec(3.0, 2.0, 1.0), grid)
        assert mean_position(psi) == pytest.approx(3.0, abs=1e-12)
        assert mean_momentum(psi) == pytest.approx(2.0, abs=1e-12)

    def test_width_conventions(self, grid):
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
        assert spatial_width(psi) == pytest.approx(1.0, rel=1e-12)

    def test_free_width_law_reference_point(self, grid):
        # hbar*dt/(m sigma^2) = 1 doubles the variance: width sqrt(2)
        assert gaussian_width_at(1.0, 1.0) == pytest.approx(np.sqrt(2.0), rel=1e-15)

    @pytest.mark.parametrize(
        "sigma, dt, message",
        [
            (np.nan, 1.0, "sigma must be positive and finite"),
            (-1.0, 1.0, "sigma must be positive and finite"),
            (0.0, 1.0, "sigma must be positive and finite"),
            (np.inf, 1.0, "sigma must be positive and finite"),
            (1.0, np.nan, "dt must be finite"),
            (1.0, np.inf, "dt must be finite"),
        ],
    )
    def test_free_width_law_refuses_bad_arguments(self, sigma, dt, message):
        # as GaussianSpec refuses the same sigma
        with pytest.raises(ValueError, match=f"^{message}$"):
            gaussian_width_at(sigma, dt)

    def test_requires_normalized(self, grid):
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1.0), grid)
        bad = psi.with_amps(psi.amps * 2.0)
        with pytest.raises(NormalizationError):
            mean_position(bad)

    @given(
        x0=st.floats(-4, 4),
        p0=st.floats(-8, 8),
        sigma=st.floats(0.3, 2.0),
    )
    @settings(max_examples=25, deadline=None)
    def test_sample_measure_round_trip(self, x0, p0, sigma):
        g = SpatialGrid(-32.0, 32.0, 2048)
        psi = sample_gaussian(GaussianSpec(x0, p0, sigma), g)
        assert mean_position(psi) == pytest.approx(x0, rel=1e-8, abs=1e-8)
        assert mean_momentum(psi) == pytest.approx(p0, rel=1e-8, abs=1e-8)
        assert spatial_width(psi) == pytest.approx(sigma, rel=1e-8)


class TestFourierPair:
    def test_round_trip(self, packet):
        back = to_position_rep(packet.grid, to_momentum_rep(packet)[1])
        assert l2_distance(packet, back) < 1e-13

    def test_array_pair(self):
        units = UnitSystem(0.7, 1.3)
        g = SpatialGrid(-16.0, 16.0, 512)
        psi = sample_gaussian(GaussianSpec(1.0, 2.0, 0.8), g, units)
        psi = psi.with_amps(psi.amps, time=0.5)
        p, amps = to_momentum_rep(psi, units)
        assert p.tobytes() == g.p_sorted(units).tobytes()
        back = to_position_rep(g, amps, units)
        assert back.grid == g and back.time == 0.0
        assert l2_distance(psi, back) < 1e-13

    def test_matches_direct_dft(self):
        g = SpatialGrid(-8.0, 8.0, 64)
        psi = sample_gaussian(GaussianSpec(0.5, 1.0, 0.9), g)
        p_ref, amps_ref = direct_dft(psi)
        p, amps = to_momentum_rep(psi)
        np.testing.assert_allclose(p, p_ref, atol=1e-12)
        np.testing.assert_allclose(amps, amps_ref, atol=1e-12)

    def test_parseval(self, packet):
        assert abs(packet.norm2() - momentum_norm2(*to_momentum_rep(packet))) < 1e-12

    def test_momentum_gaussian_width(self):
        g = SpatialGrid(-32.0, 32.0, 2048)
        for sigma in (0.5, 1.0, 2.0):
            psi = sample_gaussian(GaussianSpec(0.0, 0.0, sigma), g)
            p, amps = to_momentum_rep(psi)
            rho, dp = np.abs(amps) ** 2, p[1] - p[0]
            mean = np.sum(p * rho) * dp
            var = np.sum((p - mean) ** 2 * rho) * dp
            width = np.sqrt(2.0 * var)
            assert width == pytest.approx(1.0 / sigma, rel=1e-10)

    def test_shift_theorem(self):
        g = SpatialGrid(-32.0, 32.0, 2048)
        psi = sample_gaussian(GaussianSpec(0.0, 5.0, 1.0), g)
        p, amps = to_momentum_rep(psi)
        peak_p = p[np.argmax(np.abs(amps) ** 2)]
        assert peak_p == pytest.approx(5.0, abs=p[1] - p[0])

    def test_si_units_parseval(self):
        units = si_units(9.1e-31)
        g = SpatialGrid(-1e-9, 1e-9, 512)
        psi = sample_gaussian(GaussianSpec(0.0, 0.0, 1e-10), g, units)
        p, amps = to_momentum_rep(psi, units)
        assert abs(psi.norm2() - momentum_norm2(p, amps)) < 1e-12 * psi.norm2()
        back = to_position_rep(g, amps, units)
        assert l2_distance(psi, back) / np.sqrt(psi.norm2()) < 1e-13

    @given(
        x0a=st.floats(-4, 4),
        x0b=st.floats(-4, 4),
        p0a=st.floats(-6, 6),
        p0b=st.floats(-6, 6),
        w=st.floats(0.1, 0.9),
        phase=st.floats(0, 2 * np.pi),
    )
    @settings(max_examples=25, deadline=None)
    def test_parseval_on_superpositions(self, x0a, x0b, p0a, p0b, w, phase):
        g = SpatialGrid(-32.0, 32.0, 1024)
        a = sample_gaussian(GaussianSpec(x0a, p0a, 1.0), g)
        b = sample_gaussian(GaussianSpec(x0b, p0b, 0.7), g)
        amps = np.sqrt(w) * a.amps + np.sqrt(1 - w) * np.exp(1j * phase) * b.amps
        psi = a.with_amps(amps)
        p, amps = to_momentum_rep(psi)
        assert abs(psi.norm2() - momentum_norm2(p, amps)) < 1e-12
        assert l2_distance(psi, to_position_rep(g, amps)) < 1e-13


class TestKernelPair:
    """``_fft``/``_ifft`` call scipy's pocketfft kernel directly; they must
    give what ``scipy.fft.fft``/``ifft`` give, bit for bit.  A scipy release
    that changes the private kernel fails here by name; one that moves it
    fails at ``import linpot``, with an ImportError naming the directory
    searched and the scipy version."""

    @staticmethod
    def _complex(shape, seed):
        rng = np.random.default_rng(seed)
        return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)

    @pytest.mark.parametrize("n", [16, 1024, 8192])
    @pytest.mark.parametrize("rows", [None, 3], ids=["single", "stack"])
    def test_equals_scipy_fft(self, n, rows):
        a = self._complex((n,) if rows is None else (rows, n), n)
        before = a.copy()
        np.testing.assert_array_equal(_fft(a), scipy.fft.fft(a))
        np.testing.assert_array_equal(_ifft(a), scipy.fft.ifft(a))
        np.testing.assert_array_equal(a, before)

    def test_moved_kernel_fails_by_name(self, tmp_path):
        with pytest.raises(ImportError) as failure:
            _load_pocketfft(str(tmp_path))
        assert f"not found in {tmp_path} (scipy {scipy.__version__})" in str(failure.value)

    @pytest.mark.parametrize("n", [16, 1024, 8192])
    @pytest.mark.parametrize("rows", [None, 3], ids=["single", "stack"])
    def test_in_place_shares_the_buffer(self, n, rows):
        a = self._complex((n,) if rows is None else (rows, n), n + 1)
        for transform in (_fft, _ifft):
            want = transform(a)
            got = transform(a, a)
            assert got is a
            np.testing.assert_array_equal(got, want)


class TestPotentials:
    def test_linear_exact(self):
        v = Linear(2.5)
        x = np.array([-3.0, 0.0, 1.7])
        np.testing.assert_array_equal(v.evaluate(x), 2.5 * x)

    def test_linear_equals_collinear_piecewise(self):
        v0 = 1.37
        lin = Linear(v0)
        pw = PiecewiseLinear(((-10.0, -10.0 * v0), (10.0, 10.0 * v0)))
        x = np.linspace(-10, 10, 1001)
        np.testing.assert_allclose(pw.evaluate(x), lin.evaluate(x), rtol=1e-14, atol=1e-14)

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    @pytest.mark.parametrize("name", ["v0", "offset"])
    def test_linear_must_be_finite(self, name, value):
        # turning_points and the solver's phase tables need both finite
        args = {"v0": 1.0, "offset": 0.0, name: value}
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            Linear(**args)

    def test_breakpoints_must_increase(self):
        with pytest.raises(ValueError):
            PiecewiseLinear(((0.0, 0.0), (0.0, 1.0)))

    def test_piecewise_continuous_and_clamped(self):
        pw = PiecewiseLinear(((0.0, 0.0), (1.0, 2.0), (2.0, 0.0)))
        assert pw.evaluate(np.array([0.5]))[0] == pytest.approx(1.0)
        assert pw.evaluate(np.array([-5.0]))[0] == 0.0
        assert pw.evaluate(np.array([5.0]))[0] == 0.0

    def test_free_is_zero(self):
        # +0.0 at every point, negative x included: no -0.0 reaches the tables
        v = Linear(0.0).evaluate(np.linspace(-5, 5, 11))
        assert np.all(v == 0.0)
        assert not np.signbit(v).any()

    def test_sampled_matches_grid(self):
        g = SpatialGrid(-4.0, 4.0, 64)
        vals = np.sin(g.x)
        v = PiecewiseLinear(zip(g.x, vals))
        np.testing.assert_array_equal(v.evaluate(g.x), vals)

    def test_units_validation(self):
        with pytest.raises(ValueError):
            UnitSystem(hbar=-1.0, mass=1.0)
        assert NATURAL.hbar == 1.0 and NATURAL.mass == 1.0
